open Util

(* The write-back protocol ([Dilos.Writeback]) on both page kernels:
   each row stages its kernel's own eviction path around one dirty
   victim page, and the same checks run against every row. *)

type rig = {
  eng : Sim.Engine.t;
  stats : Sim.Stats.t;
  victim : int64;
  state : unit -> Vmem.Pte.tag * bool; (* the victim's tag and dirty bit *)
  store : unit -> unit; (* a store into the victim *)
  press : unit -> unit; (* one step of memory pressure *)
  evicted : unit -> int; (* pages of the rig no longer [Local] *)
}

(* Every WRITE fails for good: the one shard, RF 1, dies at once. *)
let dead_shard () =
  match Faults.Spec.parse "kill-shard=0@0us" with
  | Ok spec -> Faults.Plan.make ~seed:1 spec
  | Error m -> Alcotest.fail m

let tag_dirty p = (Vmem.Pte.tag p, Vmem.Pte.dirty p)

(* Of pages [first .. first + n - 1]. *)
let count_evicted ~first n pte =
  List.length
    (List.filter (fun i -> Vmem.Pte.tag (pte (first + i)) <> Vmem.Pte.Local) (List.init n Fun.id))

(* DiLOS: the page manager over 128 frames, all mapped, vpn 1 (the
   clock's head) the only dirty page. Draining the pool wakes the
   reclaimer, whose write-back of the victim stays on the wire for
   100 us. *)
let dilos ~dead k =
  run_sim (fun eng ->
      let faults = if dead then Some (dead_shard ()) else None in
      let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 30) ?faults () in
      let stats = Sim.Stats.create () in
      let fabric =
        Memnode.Server.connect server ~stats ~extra_completion_delay:(Sim.Time.us 100) ()
      in
      let pt = Vmem.Page_table.create () and frames = 128 in
      let fr = Vmem.Frame.create ~frames in
      let pm =
        Dilos.Page_manager.create ~eng ~stats ~pt ~frames:fr
          ~evict_qp:(Rdma.Fabric.qp fabric ~name:"evict") ()
      in
      Dilos.Page_manager.start pm;
      for vpn = 1 to frames do
        let pte = Vmem.Pte.make_local ~frame:(Vmem.Frame.alloc_exn fr) ~writable:true in
        Vmem.Page_table.set pt vpn (if vpn = 1 then Vmem.Pte.set_dirty pte else pte);
        Dilos.Page_manager.note_mapped pm vpn
      done;
      k
        {
          eng;
          stats;
          victim = Vmem.Addr.base 1;
          state = (fun () -> tag_dirty (Vmem.Page_table.get pt 1));
          store =
            (fun () ->
              Vmem.Page_table.update pt 1 Vmem.Pte.set_dirty;
              Dilos.Page_manager.note_dirtied pm 1);
          press =
            (fun () ->
              ignore (Dilos.Page_manager.try_alloc_frame pm);
              Sim.Engine.sleep eng (Sim.Time.us 1));
          evicted = (fun () -> count_evicted ~first:1 frames (Vmem.Page_table.get pt));
        };
      Dilos.Page_manager.stop pm)

(* Fastswap: 32 frames, the victim (the first page, the LRU's head)
   the only dirty page; each press reads a fresh page in. The offload
   thread's store of the victim starts once the pool runs low, before
   any fault reclaims directly. *)
let fastswap ~dead k =
  run_sim (fun eng ->
      let faults = if dead then Some (dead_shard ()) else None in
      let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 30) ?faults () in
      let fs =
        Fastswap.Kernel.boot ~eng ~server
          { Fastswap.Kernel.local_mem_bytes = 32 * 4096; cores = 1; readahead = false }
      in
      let base = Fastswap.Kernel.mmap fs ~len:(4096 * 4096) () in
      let page i = Int64.add base (Int64.of_int (i * 4096)) in
      Fastswap.Kernel.write_u64 fs ~core:0 base 1L;
      let touched = ref 1 in
      k
        {
          eng;
          stats = Fastswap.Kernel.stats fs;
          victim = base;
          state = (fun () -> tag_dirty (Fastswap.Kernel.pte fs base));
          store = (fun () -> Fastswap.Kernel.write_u64 fs ~core:0 base 2L);
          press =
            (fun () ->
              ignore (Fastswap.Kernel.read_u64 fs ~core:0 (page !touched));
              incr touched);
          evicted =
            (fun () -> count_evicted ~first:0 !touched (fun i -> Fastswap.Kernel.pte fs (page i)));
        };
      Fastswap.Kernel.shutdown fs)

let rows = [ ("dilos", dilos); ("fastswap", fastswap) ]
let stat r name = Sim.Stats.get r.stats name
let on_the_wire = (Vmem.Pte.Local, false) (* [begin_] cleared dirty *)
let kept = (Vmem.Pte.Local, true)
let tag_t =
  Alcotest.of_pp (fun ppf tag ->
      Fmt.string ppf
        (match tag with
        | Vmem.Pte.Local -> "Local"
        | Vmem.Pte.Unmapped -> "Unmapped"
        | Vmem.Pte.Remote -> "Remote"
        | Vmem.Pte.Fetching -> "Fetching"
        | Vmem.Pte.Action -> "Action"))

(* Step until [pred] holds; a kernel that never gets there fails the
   test instead of hanging it. *)
let until pred step =
  let steps = ref 0 in
  while not (pred ()) do
    incr steps;
    if !steps > 100_000 then Alcotest.fail "the kernel never got there";
    step ()
  done

let nap r () = Sim.Engine.sleep r.eng (Sim.Time.ns 100)

(* (a) A store lands while the victim's WRITE is on the wire: the
   re-check keeps the page resident and dirty, and counts no
   eviction. *)
let store_during_write name boot () =
  boot ~dead:false (fun r ->
      until (fun () -> r.state () = on_the_wire) r.press;
      r.store ();
      until (fun () -> stat r "writebacks" = 1) (nap r);
      Alcotest.(check (pair tag_t bool)) (name ^ ": kept Local and dirty") kept (r.state ());
      check_int (name ^ ": evictions are the unmapped pages") (r.evicted ())
        (stat r "evictions"))

(* (b) Every WRITE fails: the victim is re-dirtied and stays resident,
   and its [fault_refetch_max]-th failure in a row loses it. *)
let failed_write name boot () =
  let seen = ref None in
  match
    boot ~dead:true (fun r ->
        seen := Some r;
        until (fun () -> r.state () = on_the_wire) r.press;
        until (fun () -> r.state () = kept) (nap r);
        check_int (name ^ ": one failed WRITE") 1 (stat r "rdma_perm_failures");
        check_int (name ^ ": evictions are the unmapped pages") (r.evicted ())
          (stat r "evictions");
        until (fun () -> false) r.press)
  with
  | () -> Alcotest.failf "%s: a page that never writes back was not lost" name
  | exception Dilos.Cpu.Page_lost addr ->
      let r = Option.get !seen in
      check_i64 (name ^ ": the victim is lost") r.victim addr;
      check_int (name ^ ": after fault_refetch_max failures") Dilos.Params.fault_refetch_max
        (stat r "rdma_perm_failures")

let suite =
  List.concat_map
    (fun (name, boot) ->
      [
        quick (name ^ ": a store during the WRITE keeps the page") (store_during_write name boot);
        quick (name ^ ": a failed WRITE re-dirties, then loses the page") (failed_write name boot);
      ])
    rows
