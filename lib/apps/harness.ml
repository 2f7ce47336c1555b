type system =
  | Dilos of Dilos.Kernel.prefetch_kind
  | Dilos_guided of Dilos.Kernel.prefetch_kind
  | Dilos_tcp of Dilos.Kernel.prefetch_kind
  | Fastswap
  | Fastswap_no_ra
  | Aifm
  | Aifm_rdma

let prefetch_name = function
  | Dilos.Kernel.No_prefetch -> "no-prefetch"
  | Dilos.Kernel.Readahead -> "readahead"
  | Dilos.Kernel.Trend_based -> "trend-based"

let system_name = function
  | Dilos p -> "DiLOS/" ^ prefetch_name p
  | Dilos_guided p -> "DiLOS-guided/" ^ prefetch_name p
  | Dilos_tcp p -> "DiLOS-TCP/" ^ prefetch_name p
  | Fastswap -> "Fastswap"
  | Fastswap_no_ra -> "Fastswap/no-readahead"
  | Aifm -> "AIFM"
  | Aifm_rdma -> "AIFM/RDMA"

type instance =
  | I_dilos of Dilos.Kernel.t
  | I_fastswap of Fastswap.Kernel.t
  | I_aifm of Aifm.Runtime.t

type ctx = {
  eng : Sim.Engine.t;
  instance : instance;
  stats : Sim.Stats.t;
  bw : Rdma.Bandwidth.t;
  mem : core:int -> Memif.t;
  cores : int;
}

(* Both paging kernels run the data path on [Dilos.Cpu]: the closures
   capture the core's access path itself, so a hit goes straight to the
   TLB. *)
let memif_of_cpu kind c ~malloc ~free =
  let open Dilos.Cpu in
  {
    Memif.kind;
    malloc;
    free;
    read_u8 = (fun a -> read_u8 c a);
    read_u16 = (fun a -> read_u16 c a);
    read_u32 = (fun a -> read_u32 c a);
    read_u64 = (fun a -> read_u64 c a);
    write_u8 = (fun a v -> write_u8 c a v);
    write_u16 = (fun a v -> write_u16 c a v);
    write_u32 = (fun a v -> write_u32 c a v);
    write_u64 = (fun a v -> write_u64 c a v);
    read_bytes = (fun a b o l -> read_bytes c a b o l);
    write_bytes = (fun a b o l -> write_bytes c a b o l);
    read_u8_at = (fun a off -> read_u8_at c a off);
    read_u16_at = (fun a off -> read_u16_at c a off);
    read_u32_at = (fun a off -> read_u32_at c a off);
    read_u64_at = (fun a off -> read_u64_at c a off);
    write_u8_at = (fun a off v -> write_u8_at c a off v);
    write_u16_at = (fun a off v -> write_u16_at c a off v);
    write_u32_at = (fun a off v -> write_u32_at c a off v);
    write_u64_at = (fun a off v -> write_u64_at c a off v);
    compute = (fun ns -> charge c ns);
    flush = (fun () -> flush c);
    touch = (fun a -> touch c a);
    now = (fun () -> now c);
  }

let memif_of_aifm k ~core =
  let open Aifm.Runtime in
  {
    Memif.kind = Memif.Aifm_backend;
    malloc = (fun n -> malloc k ~core n);
    free = (fun a -> free k ~core a);
    read_u8 = (fun a -> read_u8 k ~core a);
    read_u16 = (fun a -> read_u16 k ~core a);
    read_u32 = (fun a -> read_u32 k ~core a);
    read_u64 = (fun a -> read_u64 k ~core a);
    write_u8 = (fun a v -> write_u8 k ~core a v);
    write_u16 = (fun a v -> write_u16 k ~core a v);
    write_u32 = (fun a v -> write_u32 k ~core a v);
    write_u64 = (fun a v -> write_u64 k ~core a v);
    read_bytes = (fun a b o l -> read_bytes k ~core a b o l);
    write_bytes = (fun a b o l -> write_bytes k ~core a b o l);
    (* AIFM's handle-based runtime has no slab-offset fast path; the
       [_at] variants just recombine base+off. *)
    read_u8_at = (fun a off -> read_u8 k ~core (Int64.add a (Int64.of_int off)));
    read_u16_at = (fun a off -> read_u16 k ~core (Int64.add a (Int64.of_int off)));
    read_u32_at = (fun a off -> read_u32 k ~core (Int64.add a (Int64.of_int off)));
    read_u64_at = (fun a off -> read_u64 k ~core (Int64.add a (Int64.of_int off)));
    write_u8_at =
      (fun a off v -> write_u8 k ~core (Int64.add a (Int64.of_int off)) v);
    write_u16_at =
      (fun a off v -> write_u16 k ~core (Int64.add a (Int64.of_int off)) v);
    write_u32_at =
      (fun a off v -> write_u32 k ~core (Int64.add a (Int64.of_int off)) v);
    write_u64_at =
      (fun a off v -> write_u64 k ~core (Int64.add a (Int64.of_int off)) v);
    compute = (fun ns -> compute k ~core ns);
    flush = (fun () -> flush k ~core);
    touch = (fun a -> touch k ~core a);
    now = (fun () -> now k);
  }

let memif_of_instance instance ~core =
  match instance with
  | I_dilos k ->
      memif_of_cpu Memif.Dilos_backend (Dilos.Kernel.cpu k ~core)
        ~malloc:(fun n -> Dilos.Kernel.ddc_malloc k ~core n)
        ~free:(fun a -> Dilos.Kernel.ddc_free k ~core a)
  | I_fastswap k ->
      memif_of_cpu Memif.Fastswap_backend (Fastswap.Kernel.cpu k ~core)
        ~malloc:(fun n -> Fastswap.Kernel.malloc k ~core n)
        ~free:(fun a -> Fastswap.Kernel.free k ~core a)
  | I_aifm k -> memif_of_aifm k ~core

type 'a result = {
  value : 'a;
  elapsed : Sim.Time.t;
  run_stats : Sim.Stats.t;
  rx_bytes : int;
  tx_bytes : int;
}

let boot system ~eng ~server ~local_mem ~cores =
  let dilos_cfg prefetch guided tcp =
    {
      Dilos.Kernel.local_mem_bytes = local_mem;
      cores;
      prefetch;
      guided_paging = guided;
      tcp_emulation = tcp;
    }
  in
  match system with
  | Dilos p -> I_dilos (Dilos.Kernel.boot ~eng ~server (dilos_cfg p false false))
  | Dilos_guided p -> I_dilos (Dilos.Kernel.boot ~eng ~server (dilos_cfg p true false))
  | Dilos_tcp p -> I_dilos (Dilos.Kernel.boot ~eng ~server (dilos_cfg p false true))
  | Fastswap ->
      I_fastswap
        (Fastswap.Kernel.boot ~eng ~server
           { Fastswap.Kernel.local_mem_bytes = local_mem; cores; readahead = true })
  | Fastswap_no_ra ->
      I_fastswap
        (Fastswap.Kernel.boot ~eng ~server
           { Fastswap.Kernel.local_mem_bytes = local_mem; cores; readahead = false })
  | Aifm ->
      I_aifm
        (Aifm.Runtime.boot ~eng ~server
           { Aifm.Runtime.local_mem_bytes = local_mem; tcp = true; prefetch_window = 16 })
  | Aifm_rdma ->
      I_aifm
        (Aifm.Runtime.boot ~eng ~server
           { Aifm.Runtime.local_mem_bytes = local_mem; tcp = false; prefetch_window = 16 })

let instance_stats = function
  | I_dilos k -> Dilos.Kernel.stats k
  | I_fastswap k -> Fastswap.Kernel.stats k
  | I_aifm k -> Aifm.Runtime.stats k

let instance_fabric = function
  | I_dilos k -> Dilos.Kernel.fabric k
  | I_fastswap k -> Fastswap.Kernel.fabric k
  | I_aifm k -> Aifm.Runtime.fabric k

let instance_shutdown = function
  | I_dilos k -> Dilos.Kernel.shutdown k
  | I_fastswap k -> Fastswap.Kernel.shutdown k
  | I_aifm k -> Aifm.Runtime.shutdown k

let run system ~local_mem ?(cores = 1) ?remote_size ?fault_spec
    ?(fault_seed = 1) ?shards ?replication ?obs ?observe f =
  let eng = Sim.Engine.create () in
  (* The Observatory registry must be ambient BEFORE boot: QPs, shards
     and kernels resolve their labeled handles in their constructors.
     Uninstalled again before returning so one run's registry never
     leaks series into the next run's boot. *)
  (match obs with None -> () | Some reg -> Obs.Registry.install reg);
  Fun.protect
    ~finally:(fun () -> if Option.is_some obs then Obs.Registry.uninstall ())
  @@ fun () ->
  let size = Option.value ~default:(Int64.shift_left 1L 36) remote_size in
  let faults =
    Option.map (fun spec -> Faults.Plan.make ~seed:fault_seed spec) fault_spec
  in
  let server = Memnode.Server.create ~eng ~size ?shards ?replication ?faults () in
  let instance = boot system ~eng ~server ~local_mem ~cores in
  let stats = instance_stats instance in
  let bw = Rdma.Fabric.bandwidth (instance_fabric instance) in
  let ctx =
    {
      eng;
      instance;
      stats;
      bw;
      mem = (fun ~core -> memif_of_instance instance ~core);
      cores;
    }
  in
  (* Observability hook: runs after boot, before the workload fiber is
     spawned — the window where a tracer or health monitor can attach
     to the engine and stats of this run. *)
  (match observe with None -> () | Some obs -> obs ctx);
  let out = ref None in
  Sim.Engine.spawn eng (fun () ->
      let t0 = Sim.Engine.now eng in
      let v = f ctx in
      let t1 = Sim.Engine.now eng in
      out := Some (v, Sim.Time.sub t1 t0);
      instance_shutdown instance);
  Sim.Engine.run eng;
  match !out with
  | None -> failwith "Harness.run: workload did not complete"
  | Some (value, elapsed) ->
      {
        value;
        elapsed;
        run_stats = stats;
        rx_bytes = Rdma.Bandwidth.total bw Rdma.Bandwidth.Rx;
        tx_bytes = Rdma.Bandwidth.total bw Rdma.Bandwidth.Tx;
      }
