open Util

let run_on ?(system = Apps.Harness.Dilos Dilos.Kernel.Readahead)
    ?(local_mem = 4 * 1024 * 1024) ?(cores = 1) f =
  (Apps.Harness.run system ~local_mem ~cores f).Apps.Harness.value

(* ------------------------------------------------------------------ *)
(* Snappy codec (pure) *)

let snappy_roundtrip_text () =
  let data = Bytes.of_string (String.concat " " (List.init 200 string_of_int)) in
  let c = Apps.Snappy.compress_bytes data in
  Alcotest.(check bytes) "roundtrip" data (Apps.Snappy.decompress_bytes c)

let snappy_compresses_redundancy () =
  let data = Bytes.make 100_000 'a' in
  let c = Apps.Snappy.compress_bytes data in
  check_bool
    (Printf.sprintf "compressed %d -> %d" (Bytes.length data) (Bytes.length c))
    true
    (Bytes.length c < Bytes.length data / 10)

let snappy_empty () =
  let c = Apps.Snappy.compress_bytes Bytes.empty in
  Alcotest.(check bytes) "empty" Bytes.empty (Apps.Snappy.decompress_bytes c)

let snappy_roundtrip_qcheck =
  QCheck.Test.make ~name:"snappy roundtrip on random bytes" ~count:100
    QCheck.(string_of_size (Gen.int_range 0 5000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Apps.Snappy.decompress_bytes (Apps.Snappy.compress_bytes b)))

let snappy_roundtrip_generated =
  QCheck.Test.make ~name:"snappy roundtrip on generated corpus" ~count:30
    QCheck.(pair (int_range 0 100_000) (int_range 1 10_000))
    (fun (seed, n) ->
      let rng = Sim.Rng.create seed in
      let b = Apps.Snappy.generate rng n in
      Bytes.equal b (Apps.Snappy.decompress_bytes (Apps.Snappy.compress_bytes b)))

let snappy_multiblock () =
  let rng = Sim.Rng.create 5 in
  let b = Apps.Snappy.generate rng 100_000 in
  (* > 3 blocks *)
  Alcotest.(check bytes) "multiblock" b
    (Apps.Snappy.decompress_bytes (Apps.Snappy.compress_bytes b))

let snappy_corrupt_rejected () =
  let c = Apps.Snappy.compress_bytes (Bytes.of_string "hello hello hello hello") in
  Bytes.set c 8 '\042';
  (try
     ignore (Apps.Snappy.decompress_bytes c);
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ())

let snappy_streaming_matches_pure () =
  run_on (fun ctx ->
      let mem = ctx.Apps.Harness.mem ~core:0 in
      let rng = Sim.Rng.create 77 in
      let data = Apps.Snappy.generate rng 200_000 in
      let src = mem.Apps.Memif.malloc 200_000 in
      mem.Apps.Memif.write_bytes src data 0 200_000;
      let dst = mem.Apps.Memif.malloc 250_000 in
      let clen = Apps.Snappy.compress ctx ~src ~len:200_000 ~dst in
      let out = mem.Apps.Memif.malloc 200_000 in
      let dlen = Apps.Snappy.decompress ctx ~src:dst ~dst:out in
      check_int "length restored" 200_000 dlen;
      let back = Bytes.create 200_000 in
      mem.Apps.Memif.read_bytes out back 0 200_000;
      Alcotest.(check bytes) "content restored" data back;
      check_bool "stream compressed" true (clen < 200_000))

(* ------------------------------------------------------------------ *)
(* Quicksort / kmeans *)

let quicksort_sorts_everywhere () =
  List.iter
    (fun system ->
      let r =
        run_on ~system ~local_mem:(1024 * 1024) (fun ctx ->
            Apps.Quicksort.run ctx ~n:20_000 ~seed:3)
      in
      check_bool (Apps.Harness.system_name system ^ " sorted") true
        r.Apps.Quicksort.checked)
    [ Apps.Harness.Dilos Dilos.Kernel.Readahead; Apps.Harness.Fastswap; Apps.Harness.Aifm ]

let quicksort_faster_with_more_memory () =
  let time local =
    (Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.Readahead) ~local_mem:local
       (fun ctx -> Apps.Quicksort.run ctx ~n:100_000 ~seed:3))
      .Apps.Harness.value
      .Apps.Quicksort.sort_time
  in
  let small = time (100 * 1024) and big = time (8 * 1024 * 1024) in
  check_bool "more cache -> faster" true (Int64.compare big small < 0)

let kmeans_converges () =
  let r =
    run_on (fun ctx -> Apps.Kmeans.run ctx ~n:20_000 ~k:5 ~iters:3 ~seed:11)
  in
  check_bool "finite inertia" true (Float.is_finite r.Apps.Kmeans.inertia);
  check_bool "positive" true (r.Apps.Kmeans.inertia > 0.)

(* ------------------------------------------------------------------ *)
(* Sequential microbenchmark *)

let seq_read_write_run () =
  let r =
    run_on ~local_mem:(512 * 1024) (fun ctx ->
        Apps.Seq.run ctx ~size_bytes:(2 * 1024 * 1024) ~mode:Apps.Seq.Read)
  in
  check_bool "positive throughput" true (r.Apps.Seq.gbps > 0.);
  let w =
    run_on ~local_mem:(512 * 1024) (fun ctx ->
        Apps.Seq.run ctx ~size_bytes:(2 * 1024 * 1024) ~mode:Apps.Seq.Write)
  in
  check_bool "write positive" true (w.Apps.Seq.gbps > 0.)

let seq_dilos_beats_fastswap () =
  let gbps system =
    (Apps.Harness.run system ~local_mem:(512 * 1024) (fun ctx ->
         Apps.Seq.run ctx ~size_bytes:(4 * 1024 * 1024) ~mode:Apps.Seq.Read))
      .Apps.Harness.value
      .Apps.Seq.gbps
  in
  let d = gbps (Apps.Harness.Dilos Dilos.Kernel.Readahead) in
  let f = gbps Apps.Harness.Fastswap in
  check_bool (Printf.sprintf "dilos %.2f > fastswap %.2f GB/s" d f) true (d > f)

(* ------------------------------------------------------------------ *)
(* DataFrame *)

let dataframe_queries_consistent () =
  run_on ~local_mem:(8 * 1024 * 1024) (fun ctx ->
      let df = Apps.Dataframe.create ctx ~rows:5_000 ~seed:9 in
      let counts = Apps.Dataframe.q_count_per_passenger df in
      check_int "counts sum to rows" 5_000 (Array.fold_left ( + ) 0 counts);
      let avgs = Apps.Dataframe.q_avg_distance_per_hour df in
      Array.iter (fun a -> check_bool "avg >= 0" true (a >= 0.)) avgs;
      let mean, std = Apps.Dataframe.q_fare_stats df in
      check_bool "mean plausible" true (mean > 2.5 && mean < 100.);
      check_bool "std positive" true (std > 0.);
      let long = Apps.Dataframe.q_long_trips df in
      check_bool "long trips subset" true (long >= 0 && long < 5_000;);
      let top = Apps.Dataframe.q_sort_by_distance df in
      check_bool "top index in range" true (top >= 0 && top < 5_000))

let dataframe_sort_correct () =
  (* The argsort winner really has the max distance (verified against
     a host-side oracle of the generated data). *)
  run_on ~local_mem:(8 * 1024 * 1024) (fun ctx ->
      let df = Apps.Dataframe.create ctx ~rows:2_000 ~seed:4 in
      let top = Apps.Dataframe.q_sort_by_distance df in
      (* Recreate with same seed to find oracle max. *)
      let df2 = Apps.Dataframe.create ctx ~rows:2_000 ~seed:4 in
      let top2 = Apps.Dataframe.q_sort_by_distance df2 in
      check_int "deterministic winner" top top2)

(* ------------------------------------------------------------------ *)
(* Graphs *)

let pagerank_sums_to_one () =
  run_on ~local_mem:(16 * 1024 * 1024) (fun ctx ->
      let g = Apps.Graph.generate ctx ~n:2_000 ~avg_deg:8 ~seed:21 in
      let r = Apps.Graph.pagerank ctx g ~iters:5 ~threads:1 in
      Alcotest.(check (float 0.05)) "score mass conserved" 1.0
        r.Apps.Graph.score_sum)

let pagerank_multithreaded_matches () =
  let sum threads cores =
    (Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.Readahead)
       ~local_mem:(16 * 1024 * 1024) ~cores (fun ctx ->
         let g = Apps.Graph.generate ctx ~n:2_000 ~avg_deg:8 ~seed:21 in
         Apps.Graph.pagerank ctx g ~iters:5 ~threads))
      .Apps.Harness.value
      .Apps.Graph.score_sum
  in
  Alcotest.(check (float 0.001)) "1 vs 4 threads same result" (sum 1 1) (sum 4 4)

let bc_finds_central_vertices () =
  run_on ~local_mem:(16 * 1024 * 1024) (fun ctx ->
      let g = Apps.Graph.generate ctx ~n:1_000 ~avg_deg:8 ~seed:33 in
      let r = Apps.Graph.betweenness ctx g ~sources:4 ~threads:2 ~seed:5 in
      check_bool "some centrality found" true (r.Apps.Graph.max_centrality > 0.))

let barrier_synchronizes () =
  let eng = Sim.Engine.create () in
  let b = Apps.Barrier.create eng ~parties:3 in
  let release_times = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.sleep eng (Sim.Time.us (i * 10));
        Apps.Barrier.wait b;
        release_times := Sim.Engine.now eng :: !release_times;
        (* Second phase: barrier must reset. *)
        Sim.Engine.sleep eng (Sim.Time.us i);
        Apps.Barrier.wait b;
        release_times := Sim.Engine.now eng :: !release_times)
  done;
  Sim.Engine.run eng;
  match List.sort_uniq Int64.compare !release_times with
  | [ first; second ] ->
      check_i64 "all released when slowest arrived" (Sim.Time.us 30) first;
      check_i64 "second phase at +3us" (Sim.Time.us 33) second
  | l -> Alcotest.fail (Printf.sprintf "expected 2 release instants, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Workload catalog *)

(* Every runner at `dilos_sim run`'s defaults (DiLOS/readahead, 1 MiB
   local, seed 42) and --scale 2000, two cores where the workload takes
   them. The expected lines are what `dilos_sim run -w W --scale 2000`
   (with --cores 2 for pagerank and bc) prints as its result. *)
let catalog_result_lines () =
  let expected =
    [
      ("seq-read", "3.81 GB/s");
      ("seq-write", "3.81 GB/s");
      ("quicksort", "sorted=true in 0.08 ms");
      ("kmeans", "0.30 ms (inertia 1.71e+12)");
      ("snappy", "18.34 ms (8192000 -> 2536073 bytes)");
      ("dataframe", "0.16 ms");
      ("pagerank", "0.56 ms (score sum 1.0000)");
      ("bc", "1.16 ms (max centrality 1065.1)");
      ("redis-get", "217006 req/s, p99 8 us");
      ("redis-lrange", "24079 req/s, p99 96 us");
    ]
  in
  let line (e : Apps.Catalog.entry) =
    let cores = if e.Apps.Catalog.multicore then 2 else 1 in
    let r =
      Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.Readahead)
        ~local_mem:(1024 * 1024) ~cores
        (fun ctx -> e.Apps.Catalog.run ctx ~scale:2000 ~seed:42 ~cores)
    in
    (e.Apps.Catalog.name, r.Apps.Harness.value)
  in
  Alcotest.(check (list (pair string string)))
    "result lines" expected
    (List.map line Apps.Catalog.entries);
  List.iter
    (fun (e : Apps.Catalog.entry) ->
      check_bool (e.Apps.Catalog.name ^ ": paper dims exceed reduced") true
        (e.Apps.Catalog.paper.Apps.Catalog.ws_bytes
         > e.Apps.Catalog.reduced.Apps.Catalog.ws_bytes))
    Apps.Catalog.entries

let suite =
  [
    quick "snappy roundtrip text" snappy_roundtrip_text;
    quick "snappy compresses redundancy" snappy_compresses_redundancy;
    quick "snappy empty" snappy_empty;
    QCheck_alcotest.to_alcotest snappy_roundtrip_qcheck;
    QCheck_alcotest.to_alcotest snappy_roundtrip_generated;
    quick "snappy multiblock" snappy_multiblock;
    quick "snappy corrupt rejected" snappy_corrupt_rejected;
    quick "snappy streaming matches pure" snappy_streaming_matches_pure;
    quick "quicksort sorts on all backends" quicksort_sorts_everywhere;
    quick "quicksort faster with more memory" quicksort_faster_with_more_memory;
    quick "kmeans converges" kmeans_converges;
    quick "seq read/write runs" seq_read_write_run;
    quick "seq: dilos beats fastswap" seq_dilos_beats_fastswap;
    quick "dataframe queries consistent" dataframe_queries_consistent;
    quick "dataframe sort deterministic" dataframe_sort_correct;
    quick "pagerank sums to one" pagerank_sums_to_one;
    quick "pagerank multithreaded matches" pagerank_multithreaded_matches;
    quick "bc finds central vertices" bc_finds_central_vertices;
    quick "barrier synchronizes" barrier_synchronizes;
    quick "catalog: every workload's result line" catalog_result_lines;
  ]
