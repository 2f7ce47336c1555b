(* Wall-clock performance harness (`bench/main.exe --json FILE`).

   Runs a fixed set of full-size experiments, measuring host wall-clock
   seconds around each (boot + workload + teardown) together with the
   run's simulated-time outputs. The JSON it writes is the repo's perf
   trajectory: commit a BENCH_<tag>.json per milestone and compare
   wall_s across commits — the sim_ms / counters columns must not move
   (simulated time is part of the repro's correctness contract), only
   wall_s may. *)

module H = Apps.Harness

type histo_summary = {
  h_name : string;
  h_count : int;
  h_mean : float;
  h_p50 : int;
  h_p99 : int;
}

type result = {
  name : string;
  wall_s : float;
  sim_ms : float;
  counters : (string * int) list;
  histos : histo_summary list;
}

let mb n = n * 1024 * 1024

(* Histograms worth tracking across commits: end-to-end fault latency
   plus the four trace-attribution components (present because
   [run_json] turns attribution on before any system boots). *)
let tracked_histos =
  ("fault_ns" :: List.map snd Trace.attr_components)
  @ [ "serve_response_ns"; "serve_service_ns" ]

let histo_summaries stats =
  List.filter_map
    (fun h_name ->
      match Sim.Stats.histogram_opt stats h_name with
      | None -> None
      | Some h when Sim.Histogram.count h = 0 -> None
      | Some h ->
          Some
            {
              h_name;
              h_count = Sim.Histogram.count h;
              h_mean = Sim.Histogram.mean h;
              h_p50 = Sim.Histogram.quantile h 0.5;
              h_p99 = Sim.Histogram.quantile h 0.99;
            })
    tracked_histos

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  {
    name;
    wall_s = wall;
    sim_ms = Sim.Time.to_ms r.H.elapsed;
    counters = Sim.Stats.counters r.H.run_stats;
    histos = histo_summaries r.H.run_stats;
  }

let seq_ws = mb 128

let targets : (string * (unit -> result)) list =
  [
    ( "seqread_dilos_ra",
      fun () ->
        timed "seqread_dilos_ra" (fun () ->
            H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:(seq_ws / 8)
              (fun ctx -> Apps.Seq.run ctx ~size_bytes:seq_ws ~mode:Apps.Seq.Read))
    );
    ( "seqwrite_dilos_ra",
      fun () ->
        timed "seqwrite_dilos_ra" (fun () ->
            H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:(seq_ws / 8)
              (fun ctx -> Apps.Seq.run ctx ~size_bytes:seq_ws ~mode:Apps.Seq.Write))
    );
    ( "seqread_fastswap",
      fun () ->
        timed "seqread_fastswap" (fun () ->
            H.run H.Fastswap ~local_mem:(seq_ws / 8) (fun ctx ->
                Apps.Seq.run ctx ~size_bytes:seq_ws ~mode:Apps.Seq.Read)) );
    ( "quicksort_dilos_ra",
      fun () ->
        let n = 2_000_000 in
        timed "quicksort_dilos_ra" (fun () ->
            H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:(n * 4 / 8)
              (fun ctx -> Apps.Quicksort.run ctx ~n ~seed:42)) );
    ( "dataframe_dilos_ra",
      fun () ->
        let rows = 1_000_000 in
        timed "dataframe_dilos_ra" (fun () ->
            H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:(rows * 40 / 8)
              (fun ctx ->
                let df = Apps.Dataframe.create ctx ~rows ~seed:17 in
                Apps.Dataframe.run_workload df)) );
    ( "pagerank_dilos_ra",
      fun () ->
        let n = 30_000 and deg = 32 in
        let ws = (n * deg * 4) + (n * 24) in
        timed "pagerank_dilos_ra" (fun () ->
            H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:(ws / 8) ~cores:4
              (fun ctx ->
                let g = Apps.Graph.generate ctx ~n ~avg_deg:deg ~seed:23 in
                Apps.Graph.pagerank ctx g ~iters:3 ~threads:4)) );
    ( "redis_get64k_dilos_trend",
      fun () ->
        let keys = 768 in
        timed "redis_get64k_dilos_trend" (fun () ->
            H.run (H.Dilos Dilos.Kernel.Trend_based)
              ~local_mem:(keys * 66_000 / 8) (fun ctx ->
                Apps.Redis_bench.run_get ctx ~keys
                  ~size:(Apps.Redis_bench.Fixed 65536) ~queries:keys ~seed:5))
    );
    ( "serve_zipf_dilos_ra",
      fun () ->
        let keys = 4096 in
        let ws = keys * 4300 in
        (* Offered at ~1.1x a typical DiLOS capacity for this config so
           the tracked response-time histogram exercises the queueing
           regime, not just service time. *)
        timed "serve_zipf_dilos_ra" (fun () ->
            H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:(ws / 8)
              (fun ctx ->
                Apps.Serving.run ctx
                  {
                    Apps.Serving.stream =
                      {
                        Workload.Stream.keys;
                        theta = 0.99;
                        read_fraction = 0.95;
                        value_size = Workload.Stream.Fixed 4080;
                        arrival = Workload.Arrival.Poisson;
                        rate_rps = 300_000.;
                        seed = 42;
                      };
                    requests = 30_000;
                    phases = 1;
                    workers = 1;
                  })) );
    ( "redis_lrange_guided",
      fun () ->
        let lists = 1024 and elements = 100_000 and elem = 512 in
        let ws = elements * (elem + 40) in
        timed "redis_lrange_guided" (fun () ->
            H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:(ws / 8)
              (fun ctx ->
                ignore (Apps.Redis_guide.install ctx);
                Apps.Redis_bench.run_lrange ctx ~lists ~elements
                  ~elem_size:elem ~queries:lists ~range:100 ~seed:5)) );
  ]

(* ------------------------------------------------------------------ *)
(* Paper-scale targets.

   The paper's evaluation dims from Apps.Catalog: 20 GiB working sets
   against 8 GiB of local DRAM, run through the catalog's runners.
   These take minutes to hours of wall clock, so they are NOT part of
   the default matrix and their results are recorded offline, not
   committed — run them by name:

     dune exec bench/main.exe -- --json BENCH_paperscale.json \
       paperscale_dataframe paperscale_quicksort *)

let paperscale workload ~seed =
  let name = "paperscale_" ^ workload in
  let e =
    List.find (fun e -> String.equal e.Apps.Catalog.name workload) Apps.Catalog.entries
  in
  let d = Apps.Catalog.dims Apps.Catalog.Paper e in
  ( name,
    fun () ->
      timed name (fun () ->
          H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:d.Apps.Catalog.local_mem
            (fun ctx -> e.Apps.Catalog.run ctx ~scale:d.Apps.Catalog.scale ~seed ~cores:1)) )

let paperscale_targets : (string * (unit -> result)) list =
  [ paperscale "dataframe" ~seed:17; paperscale "quicksort" ~seed:42 ]

(* ------------------------------------------------------------------ *)
(* Allocation-regression smoke (`--alloc-smoke`).

   Two phases per row, each with its own budget, so neither paging
   kernel's fault path or accessors can start allocating unseen. The
   rows are DiLOS and Fastswap on a healthy fabric, DiLOS under the
   [flaky] wire-fault preset (seed 7), which drives the QP's retry
   path, and DiLOS on 2 shards at RF 2 with writing sweeps, which
   drives the replica group's mirrored write-back:

   - fault path: a read-only sweep over a working set 4x local memory
     with prefetch/readahead off, so every measured access is a TLB
     miss plus a remote fetch with eviction pressure behind it. The
     data path proper is allocation-free (immediate PTEs and kernel
     words, int-keyed open-addressing tables); what remains is fiber
     machinery for the sleeps that do park (effect continuations, wake
     closures, condvar waits). DiLOS measures ~209 words/fault and
     Fastswap ~202 words/fault (~221 and ~211 while per-page kernel
     state lived in [Sim.Int_table]s, ~236 and ~225 while every Bigbuf
     copy built two Bigarray views). The budgets leave headroom for
     scheduler tweaks, yet each fails loudly if every sleep parks again
     (~567 and ~454 words/fault) or a per-fault [Bytes.create] (513
     words for a 4 KiB page) comes back. DiLOS under [flaky] measures
     ~266 words/fault (~320 while each attempt of a fault-injected work
     request built its own closures); its budget keeps the healthy
     DiLOS row's headroom ratio (512 / 209 = 2.45). DiLOS at RF 2,
     where every fault also evicts a dirty page through the granule
     diff, measures ~273 words/fault (~310 while each mirrored chunk
     read the page back and built 4 refs and 3 closures), budget
     273 x 2.45.

   - hit path: repeated u32 reads of one resident page, all TLB hits,
     through the shared hit path ([Dilos.Cpu]). The only allocation
     allowed is the amortized time-flush sleep (mem_access_ns=1
     against a 10 us pending cap = one sleep per ~10k accesses), so
     anything above half a word per access means boxed addresses or
     closures are back on the access path. (u64 reads are excluded by
     construction: an [int64] crossing the Memif closure boundary is a
     3-word box the language guarantees; int-returning accessors are
     the ones the apps' hot loops use.) *)

let alloc_budget_words_per_fault = 512.
let alloc_budget_words_per_fastswap_fault = 384.
let alloc_budget_words_per_flaky_fault = 650.
let alloc_budget_words_per_mirrored_fault = 668.
let alloc_budget_words_per_hit = 0.5
let alloc_hits = 1_000_000

(* Hit phase: one page, re-read; after the first access the TLB caches
   its slab offset. Returns the minor words of [alloc_hits] reads. *)
let hit_phase mem base =
  ignore (mem.Apps.Memif.read_u32_at base 0);
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_hits do
    ignore (mem.Apps.Memif.read_u32_at base 0)
  done;
  let words = Gc.minor_words () -. w0 in
  mem.Apps.Memif.flush ();
  words

(* Both phases on one kernel, under [fault_spec] (seed 7) when given.
   [mirrored] runs on 2 shards at RF 2 and makes the warm and measured
   sweeps write each page, so every fault evicts a dirty page and its
   write-back goes through the replica group's granule diff. Returns
   the minor words and major faults of the measured sweep and the hit
   phase's minor words. *)
let alloc_phases ?fault_spec ~mirrored system =
  let ws = mb 32 in
  let pages = ws / 4096 in
  let measured = ref None in
  let shards, replication = if mirrored then (Some 2, Some 2) else (None, None) in
  ignore
    (H.run system ~local_mem:(ws / 4) ?fault_spec ~fault_seed:7 ?shards
       ?replication (fun ctx ->
         let mem = ctx.H.mem ~core:0 in
         let base = mem.Apps.Memif.malloc ws in
         for i = 0 to pages - 1 do
           mem.Apps.Memif.write_u64_at base (i * 4096) (Int64.of_int i)
         done;
         mem.Apps.Memif.flush ();
         let sweep pass =
           for i = 0 to pages - 1 do
             if mirrored then mem.Apps.Memif.write_u32_at base (i * 4096) (pass + i)
             else ignore (mem.Apps.Memif.read_u64_at base (i * 4096))
           done;
           mem.Apps.Memif.flush ()
         in
         (* One warm sweep so every code path has run (lazy init,
            histogram and table growth) before the measured sweep. *)
         sweep 1;
         let faults0 = Sim.Stats.get ctx.H.stats "major_faults" in
         let words0 = Gc.minor_words () in
         sweep 2;
         let words = Gc.minor_words () -. words0 in
         let faults = Sim.Stats.get ctx.H.stats "major_faults" - faults0 in
         measured := Some (words, faults, hit_phase mem base)));
  match !measured with
  | None ->
      prerr_endline "alloc-smoke: workload did not run";
      exit 1
  | Some (_, faults, _) when faults < pages / 2 ->
      Printf.eprintf
        "alloc-smoke: expected a fault per page in the measured sweep, got \
         %d/%d\n"
        faults pages;
      exit 1
  | Some m -> m

let alloc_smoke () =
  let ok = ref true in
  List.iter
    (fun (name, system, fault_spec, mirrored, budget) ->
      let words, faults, hit_words = alloc_phases ?fault_spec ~mirrored system in
      let per_fault = words /. float_of_int faults in
      Printf.printf
        "alloc-smoke: %.0f minor words / %d steady-state faults on %s = %.1f \
         words/fault (budget %.0f)\n"
        words faults name per_fault budget;
      if per_fault > budget then begin
        Printf.eprintf
          "alloc-smoke: FAIL — %s fault path allocates %.1f words/fault, \
           budget %.0f\n"
          name per_fault budget;
        ok := false
      end;
      let per_hit = hit_words /. float_of_int alloc_hits in
      Printf.printf
        "alloc-smoke: %.0f minor words / %d TLB-hit u32 reads on %s = %.4f \
         words/access (budget %.1f)\n"
        hit_words alloc_hits name per_hit alloc_budget_words_per_hit;
      if per_hit > alloc_budget_words_per_hit then begin
        Printf.eprintf
          "alloc-smoke: FAIL — %s hit path allocates %.4f words/access, budget \
           %.1f\n"
          name per_hit alloc_budget_words_per_hit;
        ok := false
      end)
    [
      ( "DiLOS",
        H.Dilos Dilos.Kernel.No_prefetch,
        None,
        false,
        alloc_budget_words_per_fault );
      ( "Fastswap",
        H.Fastswap_no_ra,
        None,
        false,
        alloc_budget_words_per_fastswap_fault );
      ( "DiLOS/flaky",
        H.Dilos Dilos.Kernel.No_prefetch,
        Some Faults.Spec.flaky,
        false,
        alloc_budget_words_per_flaky_fault );
      ( "DiLOS/RF2",
        H.Dilos Dilos.Kernel.No_prefetch,
        None,
        true,
        alloc_budget_words_per_mirrored_fault );
    ];
  if not !ok then exit 1

let write_json ~file ~tag results =
  let oc = open_out file in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"tag\": \"%s\",\n  \"experiments\": [\n" (Json.escape tag);
  List.iteri
    (fun i r ->
      p "    {\n      \"name\": \"%s\",\n" (Json.escape r.name);
      p "      \"wall_s\": %.3f,\n" r.wall_s;
      p "      \"sim_ms\": %.6f,\n" r.sim_ms;
      p "      \"counters\": {";
      List.iteri
        (fun j (k, v) ->
          p "%s\"%s\": %d" (if j = 0 then "" else ", ") (Json.escape k) v)
        r.counters;
      p "},\n      \"histograms\": {";
      List.iteri
        (fun j h ->
          p
            "%s\"%s\": {\"count\": %d, \"mean_ns\": %.1f, \"p50_ns\": %d, \
             \"p99_ns\": %d}"
            (if j = 0 then "" else ", ")
            (Json.escape h.h_name) h.h_count h.h_mean h.h_p50 h.h_p99)
        r.histos;
      p "}\n    }%s\n" (if i = List.length results - 1 then "" else ",")
    )
    results;
  p "  ]\n}\n";
  close_out oc

(* Derive the tag from a BENCH_<tag>.json filename, else use the
   basename. *)
let tag_of_file file =
  let base = Filename.remove_extension (Filename.basename file) in
  if String.length base > 6 && String.sub base 0 6 = "BENCH_" then
    String.sub base 6 (String.length base - 6)
  else base

let run_json ~file keys =
  (* Before any boot: the attribution histograms are resolved per
     system at boot time, so flipping this later would miss them. *)
  Trace.set_attribution true;
  let all = targets @ paperscale_targets in
  let chosen =
    match keys with
    | [] -> targets (* paper-scale runs only by explicit name *)
    | ks ->
        List.map
          (fun k ->
            match List.assoc_opt k all with
            | Some fn -> (k, fn)
            | None ->
                Printf.eprintf "unknown bench target %S; targets are:\n" k;
                List.iter (fun (n, _) -> Printf.eprintf "  %s\n" n) all;
                exit 1)
          ks
  in
  let results =
    List.map
      (fun (name, fn) ->
        Printf.printf "bench %-28s %!" name;
        let r = fn () in
        Printf.printf "wall %6.2fs  sim %10.2fms\n%!" r.wall_s r.sim_ms;
        r)
      chosen
  in
  write_json ~file ~tag:(tag_of_file file) results;
  Printf.printf "wrote %s\n" file
