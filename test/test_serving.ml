open Util

(* Open-loop serving driver: the coordinated-omission fix. The
   decisive test is the overload one — a closed-loop bench can never
   show response p99 >> service p99 because it stops offering load
   the moment the server falls behind. *)

let stream ~offered ~keys ~seed =
  {
    Workload.Stream.keys;
    theta = 0.99;
    read_fraction = 0.95;
    value_size = Workload.Stream.Fixed 4080;
    arrival = Workload.Arrival.Poisson;
    rate_rps = offered;
    seed;
  }

let serve ?(system = Apps.Harness.Dilos Dilos.Kernel.Readahead)
    ?(local_mem = 2 * 1024 * 1024) ?(phases = 1) ?(workers = 1) ~offered
    ~keys ~requests ~seed () =
  (Apps.Harness.run system ~local_mem (fun ctx ->
       Apps.Serving.run ctx
         {
           Apps.Serving.stream = stream ~offered ~keys ~seed;
           requests;
           phases;
           workers;
         }))
    .Apps.Harness.value

let completes_and_balances () =
  let r = serve ~offered:50_000. ~keys:256 ~requests:1_000 ~seed:5 () in
  check_int "all requests complete" 1_000 r.Apps.Serving.completed;
  check_int "ops partition into gets+sets" 1_000
    (r.Apps.Serving.gets + r.Apps.Serving.sets);
  check_bool "mostly reads (0.95 mix)" true
    (r.Apps.Serving.gets > r.Apps.Serving.sets);
  check_bool "achieved positive" true (r.Apps.Serving.achieved_rps > 0.);
  check_bool "max queue tracked" true (r.Apps.Serving.max_queue >= 1)

let labels_are_correct () =
  let r = serve ~offered:50_000. ~keys:128 ~requests:500 ~seed:5 () in
  Alcotest.(check string) "open-loop label" "response_time"
    (Apps.Redis_bench.latency_kind_name
       r.Apps.Serving.response.Apps.Redis_bench.latency_kind);
  Alcotest.(check string) "service label" "service_time"
    (Apps.Redis_bench.latency_kind_name
       r.Apps.Serving.service.Apps.Redis_bench.latency_kind)

let closed_loop_is_service_time () =
  (* The fixed closed-loop bench now declares what it measures. *)
  let r =
    (Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.Readahead)
       ~local_mem:(2 * 1024 * 1024) (fun ctx ->
         Apps.Redis_bench.run_get ctx ~keys:64
           ~size:(Apps.Redis_bench.Fixed 4096) ~queries:128 ~seed:3))
      .Apps.Harness.value
  in
  Alcotest.(check string) "closed-loop label" "service_time"
    (Apps.Redis_bench.latency_kind_name r.Apps.Redis_bench.latency_kind)

let overload_response_diverges_from_service () =
  (* Offer ~100x anything the simulated server can sustain: achieved
     throughput saturates below offered and the response-time tail
     (queueing included) dwarfs the service-time tail that a
     closed-loop bench would report. *)
  let r = serve ~offered:50_000_000. ~keys:512 ~requests:2_000 ~seed:9 () in
  let resp = r.Apps.Serving.response and svc = r.Apps.Serving.service in
  check_bool
    (Printf.sprintf "achieved %.0f << offered" r.Apps.Serving.achieved_rps)
    true
    (r.Apps.Serving.achieved_rps < 0.5 *. r.Apps.Serving.offered_rps);
  check_bool "queue built up" true (r.Apps.Serving.max_queue > 100);
  check_bool
    (Printf.sprintf "response p99 %.1fus >> service p99 %.1fus"
       resp.Apps.Redis_bench.p99_us svc.Apps.Redis_bench.p99_us)
    true
    (resp.Apps.Redis_bench.p99_us > 10. *. svc.Apps.Redis_bench.p99_us);
  check_bool "response p50 also inflated" true
    (resp.Apps.Redis_bench.p50_us > svc.Apps.Redis_bench.p99_us)

let underload_response_tracks_service () =
  (* Well below capacity the queue stays shallow, so the two latency
     definitions nearly coincide — the divergence above is queueing,
     not measurement skew. *)
  let r = serve ~offered:10_000. ~keys:256 ~requests:1_000 ~seed:9 () in
  let resp = r.Apps.Serving.response and svc = r.Apps.Serving.service in
  check_bool "shallow queue" true (r.Apps.Serving.max_queue <= 4);
  check_bool
    (Printf.sprintf "response p50 %.1fus ~ service p50 %.1fus"
       resp.Apps.Redis_bench.p50_us svc.Apps.Redis_bench.p50_us)
    true
    (resp.Apps.Redis_bench.p50_us < 4. *. Float.max 0.1 svc.Apps.Redis_bench.p50_us)

let same_seed_same_result () =
  let a = serve ~offered:300_000. ~keys:512 ~requests:1_500 ~seed:4 () in
  let b = serve ~offered:300_000. ~keys:512 ~requests:1_500 ~seed:4 () in
  check_int "completed" a.Apps.Serving.completed b.Apps.Serving.completed;
  check_int "gets" a.Apps.Serving.gets b.Apps.Serving.gets;
  check_int "sets" a.Apps.Serving.sets b.Apps.Serving.sets;
  check_int "max_queue" a.Apps.Serving.max_queue b.Apps.Serving.max_queue;
  check_i64 "duration" a.Apps.Serving.duration b.Apps.Serving.duration;
  Alcotest.(check (float 0.)) "achieved rps" a.Apps.Serving.achieved_rps
    b.Apps.Serving.achieved_rps;
  Alcotest.(check (float 0.)) "response p99"
    a.Apps.Serving.response.Apps.Redis_bench.p99_us
    b.Apps.Serving.response.Apps.Redis_bench.p99_us;
  Alcotest.(check (float 0.)) "service p999"
    a.Apps.Serving.service.Apps.Redis_bench.p999_us
    b.Apps.Serving.service.Apps.Redis_bench.p999_us

let phases_partition_requests () =
  let r =
    serve ~offered:200_000. ~keys:256 ~requests:1_000 ~phases:4 ~seed:6 ()
  in
  check_int "4 phases" 4 (List.length r.Apps.Serving.phases);
  let total =
    List.fold_left
      (fun acc (p : Apps.Serving.phase) ->
        acc + p.Apps.Serving.ph_response.Apps.Redis_bench.requests)
      0 r.Apps.Serving.phases
  in
  check_int "phase counts partition the run" 1_000 total;
  List.iter
    (fun (p : Apps.Serving.phase) ->
      check_int "equal split" 250
        p.Apps.Serving.ph_response.Apps.Redis_bench.requests;
      Alcotest.(check string) "phase response label" "response_time"
        (Apps.Redis_bench.latency_kind_name
           p.Apps.Serving.ph_response.Apps.Redis_bench.latency_kind))
    r.Apps.Serving.phases

let workers_increase_capacity () =
  (* Under saturation, more worker fibers drain the queue faster. *)
  let one =
    serve ~offered:50_000_000. ~keys:256 ~requests:1_500 ~workers:1 ~seed:2 ()
  in
  let four =
    serve ~offered:50_000_000. ~keys:256 ~requests:1_500 ~workers:4 ~seed:2 ()
  in
  check_bool
    (Printf.sprintf "4 workers %.0f rps > 1 worker %.0f rps"
       four.Apps.Serving.achieved_rps one.Apps.Serving.achieved_rps)
    true
    (four.Apps.Serving.achieved_rps > one.Apps.Serving.achieved_rps)

let serving_works_on_fastswap () =
  let r =
    serve ~system:Apps.Harness.Fastswap ~offered:100_000. ~keys:256
      ~requests:800 ~seed:5 ()
  in
  check_int "completes on fastswap" 800 r.Apps.Serving.completed

(* A GET reads into its worker's reply buffer and a SET is filled into
   its worker's request buffer, so serving a request allocates nothing
   value-sized: a fresh 4,080-byte reply per GET (too big for the
   minor heap) cost ~512 major words. Measured as the marginal cost of
   2,000 more requests over a 2,000-request run, so the populate loop
   and the one-time buffers, histograms and tables (~30 words per
   request of a 2,000-request run) do not count; what remains is
   minor-heap promotion of in-flight request state, ~1 word. *)
let major_words_per_request_budget = 10.

let serve_major_words ~requests =
  (Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.Readahead)
     ~local_mem:(2 * 1024 * 1024) (fun ctx ->
       let before = (Gc.quick_stat ()).Gc.major_words in
       let r =
         Apps.Serving.run ctx
           {
             Apps.Serving.stream = stream ~offered:100_000. ~keys:1_024 ~seed:11;
             requests;
             phases = 1;
             workers = 1;
           }
       in
       check_int "all requests complete" requests r.Apps.Serving.completed;
       (Gc.quick_stat ()).Gc.major_words -. before))
    .Apps.Harness.value

let serve_allocation_guard () =
  let base = serve_major_words ~requests:2_000 in
  let more = serve_major_words ~requests:4_000 in
  let per_request = (more -. base) /. 2_000. in
  check_bool
    (Printf.sprintf "%.1f major words per request <= %.0f" per_request
       major_words_per_request_budget)
    true
    (per_request <= major_words_per_request_budget)

let suite =
  [
    quick "completes and balances" completes_and_balances;
    quick "labels are correct" labels_are_correct;
    quick "closed loop is service time" closed_loop_is_service_time;
    quick "overload: response p99 >> service p99"
      overload_response_diverges_from_service;
    quick "underload: response tracks service" underload_response_tracks_service;
    quick "same seed, same result" same_seed_same_result;
    quick "phases partition requests" phases_partition_requests;
    quick "workers increase capacity" workers_increase_capacity;
    quick "serving works on fastswap" serving_works_on_fastswap;
    quick "serve allocation guard" serve_allocation_guard;
  ]
