type preset = Paper | Reduced

type dims = {
  scale : int; (* the workload's --scale knob (elements/rows/keys/pages) *)
  local_mem : int; (* local DRAM budget, bytes *)
  ws_bytes : int; (* resulting working set, bytes (for reporting) *)
}

type entry = {
  name : string;
  paper : dims;
  reduced : dims;
  multicore : bool;
  guide : bool;
  run : Harness.ctx -> scale:int -> seed:int -> cores:int -> string;
}

let gib n = n * 1024 * 1024 * 1024
let mib n = n * 1024 * 1024

let dims_of (scale, local_mem, ws_bytes) = { scale; local_mem; ws_bytes }

let entry ?(multicore = false) ?(guide = false) name ~paper ~reduced run =
  { name; paper = dims_of paper; reduced = dims_of reduced; multicore; guide; run }

let ms = Sim.Time.to_ms

let seq mode ctx ~scale ~seed:_ ~cores:_ =
  let r = Seq.run ctx ~size_bytes:(scale * 4096) ~mode in
  Printf.sprintf "%.2f GB/s" r.Seq.gbps

let redis_line (r : Redis_bench.result) =
  Printf.sprintf "%.0f req/s, p99 %.0f us" r.Redis_bench.throughput_rps
    r.Redis_bench.p99_us

(* Paper-scale working sets are the 20 GiB sort/analytics data sets of
   the paper's evaluation (Fig. 7), with 8 GiB of local DRAM (a 40%
   ratio, the paper's mid-range point). Service-style workloads get
   GB-class keyspaces at 25% local. Reduced dims are the bench/CI
   defaults: the same shapes a few hundred times smaller, sized so the
   full matrix runs in seconds. Dims are (scale, local, ws). *)
let entries =
  [
    entry "seq-read" (seq Seq.Read)
      ~paper:(gib 20 / 4096, gib 8, gib 20)
      ~reduced:(mib 128 / 4096, mib 16, mib 128);
    entry "seq-write" (seq Seq.Write)
      ~paper:(gib 20 / 4096, gib 8, gib 20)
      ~reduced:(mib 128 / 4096, mib 16, mib 128);
    entry "quicksort"
      ~paper:(gib 20 / 4, gib 8, gib 20) ~reduced:(2_000_000, mib 1, 8 * 1_000_000)
      (fun ctx ~scale ~seed ~cores:_ ->
        let r = Quicksort.run ctx ~n:scale ~seed in
        Printf.sprintf "sorted=%b in %.2f ms" r.Quicksort.checked
          (ms r.Quicksort.sort_time));
    entry "kmeans"
      ~paper:(gib 4 / 4, gib 1, gib 4) ~reduced:(1_000_000, mib 1, 4 * 1_000_000)
      (fun ctx ~scale ~seed ~cores:_ ->
        let r = Kmeans.run ctx ~n:scale ~k:10 ~iters:3 ~seed in
        Printf.sprintf "%.2f ms (inertia %.3g)" (ms r.Kmeans.cluster_time)
          r.Kmeans.inertia);
    entry "snappy"
      ~paper:(gib 1 / 1024, mib 512, gib 4) ~reduced:(1024, mib 2, mib 4)
      (fun ctx ~scale ~seed ~cores:_ ->
        let r = Snappy.run_compress ctx ~files:4 ~file_bytes:(scale * 1024) ~seed in
        Printf.sprintf "%.2f ms (%d -> %d bytes)" (ms r.Snappy.time)
          r.Snappy.input_bytes r.Snappy.output_bytes);
    entry "dataframe"
      ~paper:(gib 20 / 40, gib 8, gib 20) ~reduced:(1_000_000, mib 5, 40 * 1_000_000)
      (fun ctx ~scale ~seed ~cores:_ ->
        let df = Dataframe.create ctx ~rows:scale ~seed in
        let r = Dataframe.run_workload df in
        Printf.sprintf "%.2f ms" (ms r.Dataframe.total_time));
    entry "pagerank" ~multicore:true
      ~paper:(16_000_000, gib 1, gib 4) ~reduced:(30_000, mib 2, mib 8)
      (fun ctx ~scale ~seed ~cores ->
        let g = Graph.generate ctx ~n:scale ~avg_deg:16 ~seed in
        let r = Graph.pagerank ctx g ~iters:5 ~threads:cores in
        Printf.sprintf "%.2f ms (score sum %.4f)" (ms r.Graph.pr_time)
          r.Graph.score_sum);
    entry "bc" ~multicore:true
      ~paper:(16_000_000, gib 1, gib 4) ~reduced:(30_000, mib 2, mib 8)
      (fun ctx ~scale ~seed ~cores ->
        let g = Graph.generate ctx ~n:scale ~avg_deg:16 ~seed in
        let r = Graph.betweenness ctx g ~sources:8 ~threads:cores ~seed in
        Printf.sprintf "%.2f ms (max centrality %.1f)" (ms r.Graph.bc_time)
          r.Graph.max_centrality);
    entry "redis-get" ~guide:true
      ~paper:(2_000_000, gib 2, gib 8) ~reduced:(65_536, mib 64, mib 256)
      (fun ctx ~scale ~seed ~cores:_ ->
        redis_line
          (Redis_bench.run_get ctx ~keys:scale ~size:(Redis_bench.Fixed 4096)
             ~queries:scale ~seed));
    entry "redis-lrange" ~guide:true
      ~paper:(16_000_000, gib 2, gib 8) ~reduced:(100_000, mib 8, mib 52)
      (fun ctx ~scale ~seed ~cores:_ ->
        redis_line
          (Redis_bench.run_lrange ctx ~lists:(scale / 100) ~elements:scale
             ~elem_size:256 ~queries:(scale / 100) ~range:100 ~seed));
  ]

let dims preset e = match preset with Paper -> e.paper | Reduced -> e.reduced
