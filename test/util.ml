(* Shared helpers for the test suites. *)

let run_sim f =
  let eng = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn eng (fun () -> result := Some (f eng));
  Sim.Engine.run eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation finished without producing a result"

let quick name f = Alcotest.test_case name `Quick f

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 name a b = Alcotest.(check int64) name a b

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

(* [f ()] must raise [Failure] with a message containing each of
   [parts]. *)
let check_failure_mentions name parts f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" name
  | exception Failure msg ->
      List.iter
        (fun sub ->
          check_bool (Printf.sprintf "%s: %S mentions %S" name msg sub) true (contains ~sub msg))
        parts

(* Fault campaign for the [?fault_spec]-taking helpers below. *)
let plan_of ?fault_spec ?(fault_seed = 1) () =
  Option.map (fun spec -> Faults.Plan.make ~seed:fault_seed spec) fault_spec

(* Memory node for the [with_*] helpers: the single node by default,
   more shards or copies when the test asks for them. *)
let make_server ~eng ?faults ?shards ?replication () =
  Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 33) ?shards
    ?replication ?faults ()

(* Small DiLOS instance for kernel-level tests. *)
let with_dilos ?(local_mem = 1024 * 1024) ?(prefetch = Dilos.Kernel.No_prefetch)
    ?(guided = false) ?(cores = 1) ?fault_spec ?fault_seed ?shards ?replication
    f =
  run_sim (fun eng ->
      let faults = plan_of ?fault_spec ?fault_seed () in
      let server = make_server ~eng ?faults ?shards ?replication () in
      let k =
        Dilos.Kernel.boot ~eng ~server
          {
            Dilos.Kernel.local_mem_bytes = local_mem;
            cores;
            prefetch;
            guided_paging = guided;
            tcp_emulation = false;
          }
      in
      let r = f eng k in
      Dilos.Kernel.shutdown k;
      r)

let with_fastswap ?(local_mem = 1024 * 1024) ?(readahead = true) ?fault_spec
    ?fault_seed ?shards ?replication f =
  run_sim (fun eng ->
      let faults = plan_of ?fault_spec ?fault_seed () in
      let server = make_server ~eng ?faults ?shards ?replication () in
      let k =
        Fastswap.Kernel.boot ~eng ~server
          { Fastswap.Kernel.local_mem_bytes = local_mem; cores = 1; readahead }
      in
      let r = f eng k in
      Fastswap.Kernel.shutdown k;
      r)

let with_aifm ?(local_mem = 1024 * 1024) ?(tcp = false) f =
  run_sim (fun eng ->
      let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 33) () in
      let k =
        Aifm.Runtime.boot ~eng ~server
          { Aifm.Runtime.local_mem_bytes = local_mem; tcp; prefetch_window = 16 }
      in
      let r = f eng k in
      Aifm.Runtime.shutdown k;
      r)
