(* Benchmark runner: runs one named workload and prints one JSON
   document on stdout describing what it measured (progress goes to
   stderr). `perfbench/run.py` builds this executable, runs it, checks
   the document and prints the benchmark's result line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 (end-to-end): one counting pass (a Memif wrapper that
   counts calls but reads no clock; it is also the discarded warm-up),
   then timed runs without any wrapper until [--seconds] is spent, with
   a batch of boot-only runs before each. Every timed run must
   reproduce the counting pass's simulated outputs exactly.

   --trace 1 (per layer): a default-seed run (the warm-up), one
   untraced run, one traced run of the same seed (sampled per-call host
   timing at the Memif boundary plus latency attribution), and the
   layer probes.

   The program under test is measured from outside only: the Memif
   record the workload receives through [ctx.mem], the [~observe] hook
   of [Harness.run], the run's [Sim.Stats], and public calls of each
   layer on fixtures built here. *)

module H = Apps.Harness
module M = Apps.Memif

let clock () = Int64.to_int (Monotonic_clock.now ())
let mib n = n * 1024 * 1024
let page = 4096
let default_seed = 42

(* ------------------------------------------------------------------ *)
(* Minimal JSON writer *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | Raw of string  (** an already-serialized JSON value *)
  | List of json list
  | Obj of (string * json) list

let rec write b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      if Float.is_finite f then Printf.bprintf b "%.17g" f
      else Buffer.add_string b "null"
  | Str s -> Printf.bprintf b "%S" s
  | Raw s -> Buffer.add_string b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Printf.bprintf b "%S: " k;
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 4096 in
  write b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The Memif tap: counts every data-path call, classifies it as a hit
   or a fault by reading the kernel's fault counters before and after
   it, and (when [timed]) reads the host clock around one call in
   [sample_every], picked by a seeded generator so that the sample
   cannot alias with a periodic access pattern (a scan's readahead
   windows). Timing every call would inflate hit-dominated runs
   several-fold; the counts stay exact either way. *)

let sample_every = 16

type tap = {
  timed : bool;
  mutable c0 : Sim.Stats.counter;
  mutable c1 : Sim.Stats.counter;
  mutable c2 : Sim.Stats.counter;
  mutable c3 : Sim.Stats.counter;
  mutable calls : int;
  mutable fault_calls : int;
  mutable lcg : int;
  hit_ns : Sim.Histogram.t;
  fault_ns : Sim.Histogram.t;
}

let tap ~timed =
  let unattached = Sim.Stats.counter (Sim.Stats.create ()) "unattached" in
  {
    timed;
    c0 = unattached;
    c1 = unattached;
    c2 = unattached;
    c3 = unattached;
    calls = 0;
    fault_calls = 0;
    lcg = 1;
    hit_ns = Sim.Histogram.create ();
    fault_ns = Sim.Histogram.create ();
  }

(* Resolve only counters the booted kernel registered: resolving a
   missing name would add a counter to the run's outputs. *)
let attach t stats =
  let present = Sim.Stats.counters stats in
  let spare = Sim.Stats.create () in
  let cell name =
    Sim.Stats.counter (if List.mem_assoc name present then stats else spare) name
  in
  t.c0 <- cell "major_faults";
  t.c1 <- cell "zero_fill_faults";
  t.c2 <- cell "minor_faults";
  t.c3 <- cell "fetch_waits"

let[@inline] faults t =
  Sim.Stats.cget t.c0 + Sim.Stats.cget t.c1 + Sim.Stats.cget t.c2
  + Sim.Stats.cget t.c3

let[@inline] enter t =
  t.calls <- t.calls + 1;
  if t.timed then begin
    t.lcg <- (t.lcg * 0x2545F4914F6CDD1D) + 1;
    if (t.lcg lsr 40) land (sample_every - 1) = 0 then clock () else 0
  end
  else 0

let[@inline] leave t f0 t0 =
  let fault = faults t <> f0 in
  if fault then t.fault_calls <- t.fault_calls + 1;
  if t0 <> 0 then
    Sim.Histogram.add (if fault then t.fault_ns else t.hit_ns) (clock () - t0)

let wrap t (m : M.t) =
  {
    m with
    M.read_u8 =
      (fun a ->
        let f0 = faults t in
        let t0 = enter t in
        let v = m.M.read_u8 a in
        leave t f0 t0;
        v);
    read_u16 =
      (fun a ->
        let f0 = faults t in
        let t0 = enter t in
        let v = m.M.read_u16 a in
        leave t f0 t0;
        v);
    read_u32 =
      (fun a ->
        let f0 = faults t in
        let t0 = enter t in
        let v = m.M.read_u32 a in
        leave t f0 t0;
        v);
    read_u64 =
      (fun a ->
        let f0 = faults t in
        let t0 = enter t in
        let v = m.M.read_u64 a in
        leave t f0 t0;
        v);
    write_u8 =
      (fun a x ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.write_u8 a x;
        leave t f0 t0);
    write_u16 =
      (fun a x ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.write_u16 a x;
        leave t f0 t0);
    write_u32 =
      (fun a x ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.write_u32 a x;
        leave t f0 t0);
    write_u64 =
      (fun a x ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.write_u64 a x;
        leave t f0 t0);
    read_bytes =
      (fun a b o l ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.read_bytes a b o l;
        leave t f0 t0);
    write_bytes =
      (fun a b o l ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.write_bytes a b o l;
        leave t f0 t0);
    read_u8_at =
      (fun a off ->
        let f0 = faults t in
        let t0 = enter t in
        let v = m.M.read_u8_at a off in
        leave t f0 t0;
        v);
    read_u16_at =
      (fun a off ->
        let f0 = faults t in
        let t0 = enter t in
        let v = m.M.read_u16_at a off in
        leave t f0 t0;
        v);
    read_u32_at =
      (fun a off ->
        let f0 = faults t in
        let t0 = enter t in
        let v = m.M.read_u32_at a off in
        leave t f0 t0;
        v);
    read_u64_at =
      (fun a off ->
        let f0 = faults t in
        let t0 = enter t in
        let v = m.M.read_u64_at a off in
        leave t f0 t0;
        v);
    write_u8_at =
      (fun a off x ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.write_u8_at a off x;
        leave t f0 t0);
    write_u16_at =
      (fun a off x ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.write_u16_at a off x;
        leave t f0 t0);
    write_u32_at =
      (fun a off x ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.write_u32_at a off x;
        leave t f0 t0);
    write_u64_at =
      (fun a off x ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.write_u64_at a off x;
        leave t f0 t0);
    touch =
      (fun a ->
        let f0 = faults t in
        let t0 = enter t in
        m.M.touch a;
        leave t f0 t0);
  }

(* ------------------------------------------------------------------ *)
(* Workloads *)

type app_check = { ok : bool; detail : string }

type workload = {
  name : string;
  system : H.system;
  local_mem : int;
  remote_size : int64;
      (** sized per workload: the 64 GiB default slab does not fit a
          host with 8 GB of RAM and no swap *)
  replicated : bool;  (** two shards, replication factor two *)
  telemetry : bool;  (** Obs registry plus a health monitor *)
  seeded : bool;
  body : seed:int -> shim:(M.t -> M.t) -> H.ctx -> app_check;
}

let with_mem ctx shim = { ctx with H.mem = (fun ~core -> shim (ctx.H.mem ~core)) }

let sort_n = 2_000_000

let sort_body ~seed ~shim ctx =
  let r = Apps.Quicksort.run (with_mem ctx shim) ~n:sort_n ~seed in
  { ok = r.Apps.Quicksort.checked; detail = "quicksort order check" }

let scan_bytes = mib 256

(* Seq's overwrite pass stores [2 * i] in the first word of page [i];
   read every page back through the untapped Memif (so the check adds
   no tapped calls) after the workload. *)
let scan_body ~seed:_ ~shim ctx =
  let base = ref 0L in
  let capture (m : M.t) =
    {
      m with
      M.malloc =
        (fun n ->
          let a = m.M.malloc n in
          base := a;
          a);
    }
  in
  ignore
    (Apps.Seq.run
       (with_mem ctx (fun m -> capture (shim m)))
       ~size_bytes:scan_bytes ~mode:Apps.Seq.Write);
  let raw = ctx.H.mem ~core:0 in
  let bad = ref 0 in
  for i = 0 to (scan_bytes / page) - 1 do
    if not (Int64.equal (raw.M.read_u64_at !base (i * page)) (Int64.of_int (2 * i)))
    then incr bad
  done;
  { ok = !bad = 0; detail = Printf.sprintf "%d pages with a wrong value" !bad }

let serve_keys = 4096
let serve_requests = 200_000

let serve_body ~seed ~shim ctx =
  let stream =
    {
      Workload.Stream.keys = serve_keys;
      theta = 0.99;
      read_fraction = 0.95;
      value_size = Workload.Stream.Fixed 4080;
      arrival = Workload.Arrival.Poisson;
      rate_rps = 300_000.;
      seed;
    }
  in
  (* GET values are verified against their sentinels inside Serving (a
     mismatch raises); here, every issued request must complete. *)
  let r =
    Apps.Serving.run (with_mem ctx shim)
      { Apps.Serving.stream; requests = serve_requests; phases = 1; workers = 1 }
  in
  {
    ok = r.Apps.Serving.completed = serve_requests;
    detail = Printf.sprintf "%d of %d requests completed" r.completed serve_requests;
  }

let readahead = H.Dilos Dilos.Kernel.Readahead

let workloads =
  [
    {
      name = "sort";
      system = readahead;
      local_mem = sort_n * 4 / 8;
      remote_size = Int64.of_int (mib 512);
      replicated = false;
      telemetry = false;
      seeded = true;
      body = sort_body;
    };
    {
      name = "scan";
      system = readahead;
      local_mem = mib 32;
      remote_size = Int64.of_int (mib 1024);
      replicated = false;
      telemetry = false;
      seeded = false;
      body = scan_body;
    };
    {
      name = "scan_fastswap";
      system = H.Fastswap;
      local_mem = mib 32;
      remote_size = Int64.of_int (mib 1024);
      replicated = false;
      telemetry = false;
      seeded = false;
      body = scan_body;
    };
    {
      name = "serve";
      system = readahead;
      local_mem = serve_keys * 4300 / 8;
      remote_size = Int64.of_int (mib 512);
      replicated = true;
      telemetry = true;
      seeded = true;
      body = serve_body;
    };
  ]

(* ------------------------------------------------------------------ *)
(* One simulation run *)

type run = {
  setup_ns : int;  (** entering [Harness.run] to the [~observe] hook *)
  run_ns : int;  (** the [~observe] hook to [Harness.run] returning *)
  outputs : string;  (** simulated outputs, serialized *)
  check : app_check;
  stats : Sim.Stats.t;
  monitor : Obs.Health.t option;
  registry : Obs.Registry.t option;
}

let attr_histos =
  Dilos_trace.[ attr_kernel; attr_queue; attr_wire; attr_backoff ]

(* Everything a run simulated: time, every counter, every histogram
   except the attribution ones only a traced run has. *)
let outputs_of (r : _ H.result) =
  let histo (name, h) =
    ( name,
      Obj
        [
          ("count", Int (Sim.Histogram.count h));
          ("sum", Int (Sim.Histogram.sum h));
          ("min", Int (Sim.Histogram.min_value h));
          ("max", Int (Sim.Histogram.max_value h));
          ("p50", Int (Sim.Histogram.quantile h 0.5));
          ("p99", Int (Sim.Histogram.quantile h 0.99));
        ] )
  in
  to_string
    (Obj
       [
         ("sim_ns", Int (Int64.to_int r.H.elapsed));
         ( "counters",
           Obj
             (List.map (fun (k, v) -> (k, Int v)) (Sim.Stats.counters r.H.run_stats))
         );
         ( "histograms",
           Obj
             (List.map histo
                (List.filter
                   (fun (n, h) ->
                     Sim.Histogram.count h > 0 && not (List.mem n attr_histos))
                   (Sim.Stats.histograms r.H.run_stats))) );
       ])

exception Setup_done

let harness_run w ?obs ~observe f =
  let shards = if w.replicated then 2 else 1 in
  H.run w.system ~local_mem:w.local_mem ~remote_size:w.remote_size ~shards
    ~replication:shards ?obs ~observe f

let run_once ?tap:tp ?(attribution = false) w ~seed =
  let registry = if w.telemetry then Some (Obs.Registry.create ()) else None in
  let monitor = ref None in
  let t_boot = ref 0 in
  let observe (ctx : H.ctx) =
    t_boot := clock ();
    Option.iter (fun t -> attach t ctx.H.stats) tp;
    if w.telemetry then
      monitor :=
        Some
          (Obs.Health.start ~eng:ctx.H.eng ~stats:ctx.H.stats ?registry
             ~interval:(Sim.Time.us 200) ())
  in
  let shim = match tp with None -> Fun.id | Some t -> wrap t in
  Dilos_trace.set_attribution attribution;
  Fun.protect ~finally:(fun () -> Dilos_trace.set_attribution false) @@ fun () ->
  let t_enter = clock () in
  let r = harness_run w ?obs:registry ~observe (fun ctx -> w.body ~seed ~shim ctx) in
  let t_end = clock () in
  {
    setup_ns = !t_boot - t_enter;
    run_ns = t_end - !t_boot;
    outputs = outputs_of r;
    check = r.H.value;
    stats = r.H.run_stats;
    monitor = !monitor;
    registry;
  }

(* Boot only: the hook aborts the run once boot is done. *)
let setup_once w =
  let registry = if w.telemetry then Some (Obs.Registry.create ()) else None in
  let t_boot = ref 0 in
  let t_enter = clock () in
  (try
     ignore
       (harness_run w ?obs:registry
          ~observe:(fun _ ->
            t_boot := clock ();
            raise Setup_done)
          (fun _ -> ()))
   with Setup_done -> ());
  !t_boot - t_enter

(* ------------------------------------------------------------------ *)
(* Statistics helpers *)

let sorted_floats l = List.sort Float.compare l |> Array.of_list

(* Linear-interpolated quantile, as Python's statistics.quantiles
   (inclusive method) computes it. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile (sorted_floats l) 0.5

let spread l =
  let a = sorted_floats l in
  let m = quantile a 0.5 in
  if m = 0. then 0. else (quantile a 0.75 -. quantile a 0.25) /. m

let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Layer probes *)

let probe_quota = 0.25

(* ns/op and r² of an OLS fit of time against iterations. *)
let bechamel_row name fn =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:false ~quota:(Time.second probe_quota) ()
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let fits = Analyze.all ols clock raw in
  Hashtbl.fold
    (fun _ fit _ ->
      match (Analyze.OLS.estimates fit, Analyze.OLS.r_square fit) with
      | Some (ns :: _), Some r2 -> (ns, r2)
      | _ -> (nan, nan))
    fits (nan, nan)

let noop () = ()

let probe_event () =
  let eng = Sim.Engine.create () in
  bechamel_row "sim.event" (fun () ->
      Sim.Engine.after eng (Sim.Time.ns 1) noop;
      Sim.Engine.run eng)

(* [Engine.suspend] must be performed by a fiber. *)
let probe_park_wake () =
  let eng = Sim.Engine.create () in
  let out = ref (nan, nan) in
  Sim.Engine.spawn eng (fun () ->
      out :=
        bechamel_row "sim.park_wake" (fun () ->
            Sim.Engine.suspend eng (fun wake -> wake ())));
  Sim.Engine.run eng;
  !out

let probe_stats_incr () =
  let c = Sim.Stats.counter (Sim.Stats.create ()) "probe" in
  bechamel_row "sim.stats_incr" (fun () -> Sim.Stats.cincr c)

let probe_obs_counter () =
  Obs.Registry.install (Obs.Registry.create ());
  Fun.protect ~finally:Obs.Registry.uninstall (fun () ->
      let c = Obs.Registry.counter ~name:"perfbench_probe" () in
      bechamel_row "obs.counter" (fun () -> Obs.Registry.cincr c))

let probe_trace_span () =
  let eng = Sim.Engine.create () in
  Dilos_trace.install (Dilos_trace.create ~eng ~capacity:4096 ());
  Fun.protect ~finally:Dilos_trace.uninstall (fun () ->
      let cat = Dilos_trace.category "perfbench" in
      let track = Dilos_trace.track "perfbench" in
      bechamel_row "trace.span" (fun () ->
          Dilos_trace.span cat ~name:"probe" ~track noop))

let probe_page_table () =
  let pt = Vmem.Page_table.create () in
  let i = ref 0 in
  bechamel_row "vmem.page_table" (fun () ->
      incr i;
      let vpn = !i land 0xFFFF in
      Vmem.Page_table.set pt vpn (Vmem.Pte.make_remote ());
      ignore (Vmem.Page_table.get pt vpn))

let fixture_size = mib 16

let probe_page_store () =
  let store = Memnode.Page_store.create ~size:(Int64.of_int fixture_size) in
  let buf = Sim.Bigbuf.create page in
  let i = ref 0 in
  bechamel_row "memnode.page_rw" (fun () ->
      incr i;
      let addr = Int64.of_int (!i * page mod fixture_size) in
      Memnode.Page_store.write store ~addr ~src:buf ~off:0 ~len:page;
      Memnode.Page_store.read store ~addr ~dst:buf ~off:0 ~len:page)

let extent = 16

let rdma_fixture () =
  let eng = Sim.Engine.create () in
  let store = Memnode.Page_store.create ~size:(Int64.of_int fixture_size) in
  let fabric =
    Rdma.Fabric.connect ~eng ~target:(Memnode.Page_store.target store)
      ~size:(Int64.of_int fixture_size) ()
  in
  (eng, Rdma.Fabric.qp fabric ~name:"perfbench", Sim.Bigbuf.create (extent * page))

let probe_rdma_read () =
  let eng, qp, buf = rdma_fixture () in
  let segs = [ { Rdma.Qp.raddr = 0L; loff = 0; len = page } ] in
  bechamel_row "rdma.read" (fun () ->
      Rdma.Qp.post_read qp ~segs ~buf ~on_complete:noop;
      Sim.Engine.run eng)

let probe_rdma_extent () =
  let eng, qp, buf = rdma_fixture () in
  let offs = Array.init extent (fun i -> i * page) in
  let on_page _ = () in
  let ns, r2 =
    bechamel_row "rdma.extent" (fun () ->
        Rdma.Qp.post_read_pages qp ~raddr0:0L ~buf ~offs ~count:extent ~on_page
          ~on_page_error:None;
        Sim.Engine.run eng)
  in
  (ns /. float_of_int extent, r2)

(* [Kernel.read_u32_at] on a resident page. It must run in a fiber:
   the accumulated access time is flushed into a sleep every ~10 us. *)
let probe_core_hit () =
  let out = ref (nan, nan) in
  ignore
    (H.run readahead ~local_mem:(mib 4) ~remote_size:(Int64.of_int (mib 512))
       (fun ctx ->
         match ctx.H.instance with
         | H.I_dilos k ->
             let mem = ctx.H.mem ~core:0 in
             let base = mem.M.malloc page in
             mem.M.write_u32_at base 0 1;
             mem.M.flush ();
             out :=
               bechamel_row "core.hit" (fun () ->
                   ignore (Dilos.Kernel.read_u32_at k ~core:0 base 0))
         | _ -> ()));
  !out

(* Host ns and minor words per major fault: a read sweep over a
   working set four times local memory with prefetch off (the shape of
   bench/main.exe --alloc-smoke), repeated; the median sweep and the
   quartile spread across sweeps are reported. *)
let sweeps = 5

let probe_fault_sweep system =
  let ws = mib 32 in
  let pages = ws / page in
  let samples = ref [] in
  ignore
    (H.run system ~local_mem:(ws / 4) ~remote_size:(Int64.of_int (mib 512))
       (fun ctx ->
         let mem = ctx.H.mem ~core:0 in
         let base = mem.M.malloc ws in
         let sweep () =
           for i = 0 to pages - 1 do
             ignore (mem.M.read_u64_at base (i * page))
           done;
           mem.M.flush ()
         in
         for i = 0 to pages - 1 do
           mem.M.write_u64_at base (i * page) (Int64.of_int i)
         done;
         mem.M.flush ();
         sweep ();
         for _ = 1 to sweeps do
           let f0 = Sim.Stats.get ctx.H.stats "major_faults" in
           let w0 = Gc.minor_words () in
           let t0 = clock () in
           sweep ();
           let dt = clock () - t0 in
           let words = Gc.minor_words () -. w0 in
           let f = float_of_int (Sim.Stats.get ctx.H.stats "major_faults" - f0) in
           samples := (float_of_int dt /. f, words /. f) :: !samples
         done));
  let ns = List.map fst !samples and words = List.map snd !samples in
  (median ns, spread ns, median words)

let probes () =
  let row name (ns, r2) = [ (name, Float ns); (name ^ ".r2", Float r2) ] in
  let core_ns, core_spread, core_words = probe_fault_sweep (H.Dilos Dilos.Kernel.No_prefetch) in
  let fs_ns, fs_spread, _ = probe_fault_sweep H.Fastswap_no_ra in
  List.concat
    [
      row "sim.event_ns" (probe_event ());
      row "sim.park_wake_ns" (probe_park_wake ());
      row "sim.stats_incr_ns" (probe_stats_incr ());
      row "obs.counter_ns" (probe_obs_counter ());
      row "trace.span_ns" (probe_trace_span ());
      row "vmem.page_table_ns" (probe_page_table ());
      row "core.hit_ns" (probe_core_hit ());
      row "memnode.page_rw_ns" (probe_page_store ());
      row "rdma.read_ns" (probe_rdma_read ());
      row "rdma.extent_page_ns" (probe_rdma_extent ());
      [
        ("core.fault_ns", Float core_ns);
        ("core.fault_ns.spread", Float core_spread);
        ("core.fault_words", Float core_words);
        ("fastswap.fault_ns", Float fs_ns);
        ("fastswap.fault_ns.spread", Float fs_spread);
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer numbers of a run *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let hist_mean stats name =
  match Sim.Stats.histogram_opt stats name with
  | Some h when Sim.Histogram.count h > 0 -> Sim.Histogram.mean h
  | _ -> 0.

let hist_p99 stats name =
  match Sim.Stats.histogram_opt stats name with
  | Some h -> float_of_int (Sim.Histogram.quantile h 0.99)
  | None -> 0.

let registry_sum reg family =
  List.fold_left
    (fun acc f ->
      if String.equal f.Obs.Registry.f_name family then
        List.fold_left
          (fun acc s ->
            match s.Obs.Registry.s_value () with
            | Obs.Registry.V n -> acc + n
            | Obs.Registry.H _ -> acc)
          acc f.Obs.Registry.f_series
      else acc)
    0 (Obs.Registry.families reg)

(* Counters of the untraced run, grouped by the layer that owns them.
   A kernel's counters are reported only for the kernel that ran. *)
let model_layers w (r : run) =
  let get = Sim.Stats.get r.stats in
  let own on name v = (name, Float (if on then float_of_int v else 0.)) in
  let fs = w.system = H.Fastswap in
  let core = not fs in
  [
    own core "core.major_faults" (get "major_faults");
    own core "core.zero_fill_faults" (get "zero_fill_faults");
    own core "core.fetch_waits" (get "fetch_waits");
    own core "core.evictions" (get "evictions");
    own core "core.prefetch_issued" (get "prefetch_issued");
    ( "core.prefetch_abort_ratio",
      Float (if core then ratio (get "prefetch_aborted") (get "prefetch_issued") else 0.) );
    own core "core.reclaim_stall_ns" (get "reclaim_stall_ns");
    own fs "fastswap.major_faults" (get "major_faults");
    own fs "fastswap.minor_faults" (get "minor_faults");
    own fs "fastswap.readahead_pages" (get "readahead_pages");
    own fs "fastswap.direct_reclaims" (get "direct_reclaims");
    own true "rdma.reads" (get "rdma_reads");
    own true "rdma.writes" (get "rdma_writes");
    ("rdma.pages_per_doorbell", Float (ratio (get "rdma_reads") (get "rdma_read_batches")));
    own true "rdma.retries" (get "rdma_retries");
    own true "memnode.mirror_writes" (get "repl_mirror_writes");
    ( "memnode.shard_reads",
      Float
        (match r.registry with
        | Some reg -> float_of_int (registry_sum reg "repl_shard_reads")
        | None -> 0.) );
    ( "obs.health_ticks",
      Float (match r.monitor with Some m -> float_of_int (Obs.Health.ticks m) | None -> 0.) );
    ( "obs.health_events",
      Float
        (match r.monitor with
        | Some m -> float_of_int (List.length (Obs.Health.events m))
        | None -> 0.) );
    own true "apps.serve_completed" (get "serve_completed");
    ("apps.serve_response_ns.p99", Float (hist_p99 r.stats "serve_response_ns"));
    ("apps.serve_service_ns.p99", Float (hist_p99 r.stats "serve_service_ns"));
  ]

(* Cost of one timed empty interval: what each sampled call's reading
   includes besides the call itself. *)
let clock_cost () =
  let l =
    List.init 1001 (fun _ ->
        let t0 = clock () in
        float_of_int (clock () - t0))
  in
  median l

(* The traced run: call split, sampled per-call host time, host time
   inside Memif against the rest, and the attribution means. *)
let traced_layers t (r : run) ~untraced_run_ns =
  let q h p = float_of_int (Sim.Histogram.quantile h p) in
  let mean h = if Sim.Histogram.count h = 0 then 0. else Sim.Histogram.mean h in
  let clock_ns = clock_cost () in
  let hits = t.calls - t.fault_calls in
  let net h = Float.max 0. (mean h -. clock_ns) in
  let busy_ns =
    (float_of_int hits *. net t.hit_ns) +. (float_of_int t.fault_calls *. net t.fault_ns)
  in
  let busy_s = Float.min (busy_ns /. 1e9) (secs r.run_ns) in
  [
    ("apps.memif_calls", Float (float_of_int t.calls));
    ("apps.hit_calls", Float (float_of_int hits));
    ("apps.fault_calls", Float (float_of_int t.fault_calls));
    ("apps.hit_ns.p50", Float (q t.hit_ns 0.5));
    ("apps.hit_ns.p99", Float (q t.hit_ns 0.99));
    ("apps.fault_ns.p50", Float (q t.fault_ns 0.5));
    ("apps.fault_ns.p99", Float (q t.fault_ns 0.99));
    ("apps.memif_busy_s", Float busy_s);
    ("apps.self_s", Float (secs r.run_ns -. busy_s));
    ("apps.traced_run_s", Float (secs r.run_ns));
    ("trace.clock_ns", Float clock_ns);
    ("trace.overhead_ratio", Float (ratio r.run_ns untraced_run_ns));
    ("fault.kernel_ns", Float (hist_mean r.stats Dilos_trace.attr_kernel));
    ("fault.queue_ns", Float (hist_mean r.stats Dilos_trace.attr_queue));
    ("fault.wire_ns", Float (hist_mean r.stats Dilos_trace.attr_wire));
    ("fault.backoff_ns", Float (hist_mean r.stats Dilos_trace.attr_backoff));
  ]

(* ------------------------------------------------------------------ *)
(* Modes *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let tally = { attempted = 0; failed = 0; notes = [] }

let note fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      tally.notes <- s :: tally.notes)
    fmt

(* Run, count the attempt, and count it failed if it raises, if the
   app's own check fails, or if its simulated outputs differ from
   [expect]. *)
let attempt ?expect label f =
  tally.attempted <- tally.attempted + 1;
  Gc.full_major ();
  match f () with
  | exception e ->
      tally.failed <- tally.failed + 1;
      note "%s raised %s" label (Printexc.to_string e);
      None
  | r ->
      let same =
        match expect with None -> true | Some o -> String.equal o r.outputs
      in
      if not r.check.ok then note "%s: app check failed (%s)" label r.check.detail;
      if not same then note "%s: simulated outputs differ from the reference run" label;
      if not (r.check.ok && same) then tally.failed <- tally.failed + 1;
      Some r

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | exception End_of_file -> 0
    | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else find ()
  in
  find ()

let min_runs = 3
let max_runs = 100

(* Boot-only runs come in a batch before every full run, so that the
   samples span the whole invocation rather than one instant of it: at
   least [setup_batch_min] boots and [setup_batch_s] of wall time per
   batch, at most [setup_batch_max] boots. *)
let setup_batch_min = 3
let setup_batch_s = 0.025
let setup_batch_max = 40

let setup_batch w =
  let start = clock () in
  let rec loop n acc =
    if
      n >= setup_batch_max
      || (n >= setup_batch_min && secs (clock () - start) >= setup_batch_s)
    then acc
    else begin
      Gc.full_major ();
      loop (n + 1) (secs (setup_once w) :: acc)
    end
  in
  loop 0 []

(* Only numbers and serialized outputs outlive a run: a run record
   keeps its engine, stores and registry reachable, and retaining them
   would inflate the peak RSS with every extra run. *)
let end_to_end w ~seed ~seconds =
  let setup_only = ref (setup_batch w) in
  let t = tap ~timed:false in
  let reference =
    Option.map
      (fun r -> r.outputs)
      (attempt "counting pass" (fun () -> run_once ~tap:t w ~seed))
  in
  let timings = ref [] in
  Option.iter
    (fun expect ->
      let budget = int_of_float (seconds *. 1e9) in
      let start = clock () in
      let rec loop n last =
        let spent = clock () - start in
        if n < min_runs || (n < max_runs && spent + last <= budget) then begin
          setup_only := setup_batch w @ !setup_only;
          let t0 = clock () in
          match
            attempt ~expect (Printf.sprintf "run %d" n) (fun () -> run_once w ~seed)
          with
          | None -> ()
          | Some r ->
              timings := (secs r.setup_ns, secs r.run_ns) :: !timings;
              loop (n + 1) (clock () - t0)
        end
      in
      loop 0 0)
    reference;
  let timings = List.rev !timings in
  let floats l = List (List.map (fun s -> Float s) l) in
  let outputs = match reference with Some o -> Raw o | None -> Raw "null" in
  [
    ("memif_calls", Int t.calls);
    ("setup_only_s", floats !setup_only);
    ("run_s", floats (List.map snd timings));
    ("setup_s", floats (List.map fst timings));
    ("peak_rss_kb", Int (peak_rss_kb ()));
    ("outputs", outputs);
    ( "default_outputs",
      if (not w.seeded) || seed = default_seed then outputs else Raw "null" );
  ]

let per_layer w ~seed =
  (* The default seed's run is also the warm-up. For a seedless
     workload, or the default seed itself, it has the untraced run's
     input, so the two must agree. *)
  let default_outputs =
    Option.map
      (fun r -> r.outputs)
      (attempt "default-seed run" (fun () -> run_once w ~seed:default_seed))
  in
  let same_input = (not w.seeded) || seed = default_seed in
  let untraced =
    attempt
      ?expect:(if same_input then default_outputs else None)
      "untraced run"
      (fun () -> run_once w ~seed)
  in
  let t = tap ~timed:true in
  let traced =
    attempt ?expect:(Option.map (fun r -> r.outputs) untraced) "traced run" (fun () ->
        run_once ~tap:t ~attribution:true w ~seed)
  in
  let layers =
    match (untraced, traced) with
    | Some u, Some tr ->
        model_layers w u @ traced_layers t tr ~untraced_run_ns:u.run_ns @ probes ()
    | _ -> []
  in
  [
    ("layers", Obj layers);
    ( "outputs",
      match untraced with Some r -> Raw r.outputs | None -> Raw "null" );
    ("default_outputs", match default_outputs with Some o -> Raw o | None -> Raw "null");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun _ -> usage ())
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; workloads are: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let body =
    match !trace with
    | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
    | 1 -> per_layer w ~seed:!seed
    | _ -> usage ()
  in
  print_endline
    (to_string
       (Obj
          ([
             ("workload", Str w.name);
             ("seed", Int !seed);
             ("trace", Int !trace);
             ("ocaml", Str Sys.ocaml_version);
             ("attempted", Int tally.attempted);
             ("failed", Int tally.failed);
             ("notes", List (List.rev_map (fun s -> Str s) tally.notes));
           ]
          @ body)))
