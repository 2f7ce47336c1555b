open Util

let run_on ?(system = Apps.Harness.Dilos Dilos.Kernel.Readahead)
    ?(local_mem = 4 * 1024 * 1024) f =
  (Apps.Harness.run system ~local_mem f).Apps.Harness.value

(* ------------------------------------------------------------------ *)
(* SDS *)

let sds_roundtrip () =
  run_on (fun ctx ->
      let mem = ctx.Apps.Harness.mem ~core:0 in
      (* Only the first [len] bytes of the source are stored. *)
      let s = Apps.Sds.create mem (Bytes.of_string "hello world!!") ~len:11 in
      check_int "len" 11 (Apps.Sds.len mem s);
      let buf = ref (Bytes.make 32 '#') in
      let b0 = !buf in
      check_int "get returns the length" 11 (Apps.Sds.get mem s buf);
      check_bool "fits: buffer reused" true (!buf == b0);
      Alcotest.(check string) "data" "hello world" (Bytes.sub_string !buf 0 11);
      Apps.Sds.free mem s)

let sds_large_value () =
  run_on (fun ctx ->
      let mem = ctx.Apps.Harness.mem ~core:0 in
      let payload = Bytes.init 20_000 (fun i -> Char.chr (i land 0xFF)) in
      let s = Apps.Sds.create mem payload ~len:20_000 in
      let buf = ref (Bytes.create 16) in
      check_int "get returns the length" 20_000 (Apps.Sds.get mem s buf);
      check_int "buffer grew to the value" 20_000 (Bytes.length !buf);
      Alcotest.(check bytes) "multi-page sds" payload !buf)

(* ------------------------------------------------------------------ *)
(* Ziplist *)

let ziplist_append_iter () =
  run_on (fun ctx ->
      let mem = ctx.Apps.Harness.mem ~core:0 in
      let zl = Apps.Ziplist.create mem ~capacity:256 in
      check_int "empty" 0 (Apps.Ziplist.length mem zl);
      check_bool "append 1" true (Apps.Ziplist.try_append mem zl (Bytes.of_string "aa"));
      check_bool "append 2" true (Apps.Ziplist.try_append mem zl (Bytes.of_string "bbb"));
      check_int "len" 2 (Apps.Ziplist.length mem zl);
      let got = ref [] in
      Apps.Ziplist.iter mem zl (fun b -> got := Bytes.to_string b :: !got);
      Alcotest.(check (list string)) "iter order" [ "aa"; "bbb" ] (List.rev !got);
      Alcotest.(check (option bytes)) "nth 1" (Some (Bytes.of_string "bbb"))
        (Apps.Ziplist.nth mem zl 1);
      Alcotest.(check (option bytes)) "nth out of range" None (Apps.Ziplist.nth mem zl 2))

let ziplist_capacity_respected () =
  run_on (fun ctx ->
      let mem = ctx.Apps.Harness.mem ~core:0 in
      let zl = Apps.Ziplist.create mem ~capacity:16 in
      check_bool "fits" true (Apps.Ziplist.try_append mem zl (Bytes.make 10 'x'));
      check_bool "overflow rejected" false
        (Apps.Ziplist.try_append mem zl (Bytes.make 10 'y')))

(* ------------------------------------------------------------------ *)
(* Quicklist *)

let quicklist_push_range () =
  run_on (fun ctx ->
      let mem = ctx.Apps.Harness.mem ~core:0 in
      let ql = Apps.Quicklist.create mem in
      for i = 0 to 499 do
        Apps.Quicklist.push_tail mem ql (Bytes.of_string (Printf.sprintf "e%04d" i))
      done;
      check_int "length" 500 (Apps.Quicklist.length mem ql);
      check_bool "multiple nodes" true (Apps.Quicklist.node_count mem ql > 1);
      let first = Apps.Quicklist.range mem ql ~count:100 () in
      check_int "range count" 100 (List.length first);
      Alcotest.(check string) "order head" "e0000" (Bytes.to_string (List.hd first));
      Alcotest.(check string) "order 99" "e0099"
        (Bytes.to_string (List.nth first 99)))

let quicklist_on_node_fires_in_order () =
  run_on (fun ctx ->
      let mem = ctx.Apps.Harness.mem ~core:0 in
      let ql = Apps.Quicklist.create mem in
      for i = 0 to 199 do
        Apps.Quicklist.push_tail mem ql (Bytes.of_string (Printf.sprintf "%06d" i))
      done;
      let nodes = ref [] in
      ignore (Apps.Quicklist.range mem ql ~count:200 ~on_node:(fun n -> nodes := n :: !nodes) ());
      let visited = List.rev !nodes in
      check_bool "several nodes visited" true (List.length visited >= 2);
      check_i64 "starts at head" (Apps.Quicklist.head_node mem ql) (List.hd visited))

let quicklist_node_layout_parseable () =
  (* The guide parses node structs from raw bytes; verify the layout
     constants line up with what push_tail writes. *)
  run_on (fun ctx ->
      let mem = ctx.Apps.Harness.mem ~core:0 in
      let ql = Apps.Quicklist.create mem in
      for i = 0 to 399 do
        Apps.Quicklist.push_tail mem ql (Bytes.of_string (Printf.sprintf "%08d" i))
      done;
      let head = Apps.Quicklist.head_node mem ql in
      let raw = Bytes.create Apps.Quicklist.node_size in
      mem.Apps.Memif.read_bytes head raw 0 Apps.Quicklist.node_size;
      let next = Bytes.get_int64_le raw Apps.Quicklist.node_next_off in
      let zl = Bytes.get_int64_le raw Apps.Quicklist.node_zl_off in
      let zlbytes = Int32.to_int (Bytes.get_int32_le raw Apps.Quicklist.node_zlbytes_off) in
      check_bool "has next" true (not (Int64.equal next 0L));
      check_bool "zl nonzero" true (not (Int64.equal zl 0L));
      check_bool "zlbytes plausible" true (zlbytes > 0 && zlbytes <= 4096))

(* ------------------------------------------------------------------ *)
(* Dict *)

let dict_insert_find_remove () =
  run_on (fun ctx ->
      let mem = ctx.Apps.Harness.mem ~core:0 in
      let d = Apps.Dict.create mem ~size_hint:64 in
      Apps.Dict.insert d ~key:(Bytes.of_string "alpha") ~value:111L;
      Apps.Dict.insert d ~key:(Bytes.of_string "beta") ~value:222L;
      Alcotest.(check (option int64)) "find alpha" (Some 111L)
        (Apps.Dict.find d (Bytes.of_string "alpha"));
      Alcotest.(check (option int64)) "find missing" None
        (Apps.Dict.find d (Bytes.of_string "gamma"));
      Apps.Dict.insert d ~key:(Bytes.of_string "alpha") ~value:333L;
      Alcotest.(check (option int64)) "replaced" (Some 333L)
        (Apps.Dict.find d (Bytes.of_string "alpha"));
      check_int "count" 2 (Apps.Dict.count d);
      Alcotest.(check (option int64)) "remove" (Some 333L)
        (Apps.Dict.remove d (Bytes.of_string "alpha"));
      Alcotest.(check (option int64)) "gone" None
        (Apps.Dict.find d (Bytes.of_string "alpha"));
      check_int "count after remove" 1 (Apps.Dict.count d))

let dict_model_qcheck =
  QCheck.Test.make ~name:"dict agrees with Hashtbl model" ~count:20
    QCheck.(list (pair (int_bound 50) (int_bound 1000)))
    (fun ops ->
      (Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.Readahead)
         ~local_mem:(4 * 1024 * 1024) (fun ctx ->
           let mem = ctx.Apps.Harness.mem ~core:0 in
           let d = Apps.Dict.create mem ~size_hint:16 in
           let model = Hashtbl.create 16 in
           List.for_all
             (fun (k, v) ->
               let key = Bytes.of_string (Printf.sprintf "k%d" k) in
               if v mod 3 = 0 then begin
                 (* delete *)
                 let expect = Hashtbl.mem model k in
                 Hashtbl.remove model k;
                 let got = Apps.Dict.remove d key <> None in
                 got = expect
               end
               else begin
                 Hashtbl.replace model k (Int64.of_int v);
                 Apps.Dict.insert d ~key ~value:(Int64.of_int v);
                 Apps.Dict.find d key = Some (Int64.of_int v)
               end)
             ops
           && Hashtbl.fold
                (fun k v acc ->
                  acc
                  && Apps.Dict.find d (Bytes.of_string (Printf.sprintf "k%d" k))
                     = Some v)
                model true))
        .Apps.Harness.value)

(* ------------------------------------------------------------------ *)
(* Redis store *)

let redis_set_get_del () =
  run_on (fun ctx ->
      let r = Apps.Redis.create ctx ~keyspace_hint:64 in
      let reply = ref (Bytes.create 16) in
      let get key =
        Option.map
          (fun n -> Bytes.sub_string !reply 0 n)
          (Apps.Redis.get r (Bytes.of_string key) reply)
      in
      Apps.Redis.set r ~key:(Bytes.of_string "k1") ~value:(Bytes.of_string "v1")
        ~len:2;
      Alcotest.(check (option string)) "get" (Some "v1") (get "k1");
      Apps.Redis.set r ~key:(Bytes.of_string "k1") ~value:(Bytes.of_string "v2")
        ~len:2;
      Alcotest.(check (option string)) "overwrite" (Some "v2") (get "k1");
      check_bool "del" true (Apps.Redis.del r (Bytes.of_string "k1"));
      Alcotest.(check (option string)) "deleted" None (get "k1");
      check_bool "del missing" false (Apps.Redis.del r (Bytes.of_string "k1")))

let redis_lists () =
  run_on (fun ctx ->
      let r = Apps.Redis.create ctx ~keyspace_hint:64 in
      for i = 0 to 299 do
        Apps.Redis.rpush r ~key:(Bytes.of_string "mylist")
          (Bytes.of_string (Printf.sprintf "item%03d" i))
      done;
      let got = Apps.Redis.lrange r ~key:(Bytes.of_string "mylist") ~count:100 in
      check_int "lrange 100" 100 (List.length got);
      Alcotest.(check string) "first" "item000" (Bytes.to_string (List.hd got));
      Alcotest.(check (list bytes)) "missing list" []
        (Apps.Redis.lrange r ~key:(Bytes.of_string "nope") ~count:10))

let redis_survives_eviction () =
  run_on ~local_mem:(512 * 1024) (fun ctx ->
      let r = Apps.Redis.create ctx ~keyspace_hint:1024 in
      let n = 600 in
      for i = 0 to n - 1 do
        let v = Bytes.make 2048 (Char.chr (65 + (i mod 26))) in
        Bytes.set_int64_le v 8 (Int64.of_int i);
        Apps.Redis.set r ~key:(Bytes.of_string (string_of_int i)) ~value:v
          ~len:2048
      done;
      (* Working set ~1.2MB >> 512KB local: values round-trip through
         the memory node. *)
      let reply = ref (Bytes.create 2048) in
      for i = 0 to n - 1 do
        match Apps.Redis.get r (Bytes.of_string (string_of_int i)) reply with
        | Some len ->
            check_int "length intact" 2048 len;
            check_int "value intact" i
              (Int64.to_int (Bytes.get_int64_le !reply 8))
        | None -> Alcotest.fail "lost key"
      done)

let redis_get_grows_reply_buffer () =
  (* Every Fb_mixed size through one reply buffer that starts below
     most of them: each GET must round-trip in full, the buffer grows
     only for a new largest value, and a smaller value after the
     largest reads into the same buffer. *)
  run_on (fun ctx ->
      let r = Apps.Redis.create ctx ~keyspace_hint:64 in
      let sizes = Workload.Stream.fb_sizes in
      let largest = Array.fold_left Int.max 0 sizes in
      let value = Bytes.create largest in
      Array.iteri
        (fun i n ->
          Apps.Redis_bench.fill_value value ~len:n ~index:i;
          Apps.Redis.set r ~key:(Apps.Redis_bench.key_of i) ~value ~len:n)
        sizes;
      let reply = ref (Bytes.create (16 * 1024)) in
      Array.iteri
        (fun i n ->
          let before = !reply in
          match Apps.Redis.get r (Apps.Redis_bench.key_of i) reply with
          | Some got ->
              check_int (Printf.sprintf "%d-byte value length" n) n got;
              check_bool
                (Printf.sprintf "%d-byte value verifies" n)
                true
                (Apps.Redis_bench.verify_value !reply ~len:got ~index:i);
              check_bool
                (Printf.sprintf "%d-byte value: grew only when needed" n)
                (n <= Bytes.length before)
                (!reply == before)
          | None -> Alcotest.fail "lost key")
        sizes;
      check_int "buffer ends at the largest value" largest (Bytes.length !reply);
      let big = !reply in
      (match Apps.Redis.get r (Apps.Redis_bench.key_of 0) reply with
      | Some got ->
          check_bool "smaller value after the largest" true
            (Apps.Redis_bench.verify_value !reply ~len:got ~index:0)
      | None -> Alcotest.fail "lost key");
      check_bool "no shrink" true (!reply == big))

(* ------------------------------------------------------------------ *)
(* Workload drivers *)

let get_bench_runs () =
  let r =
    run_on ~local_mem:(1024 * 1024) (fun ctx ->
        Apps.Redis_bench.run_get ctx ~keys:200 ~size:(Apps.Redis_bench.Fixed 4096)
          ~queries:400 ~seed:3)
  in
  check_int "all queries ran" 400 r.Apps.Redis_bench.requests;
  check_bool "throughput positive" true (r.Apps.Redis_bench.throughput_rps > 0.);
  check_bool "p999 >= p99 >= p50" true
    (r.Apps.Redis_bench.p999_us >= r.Apps.Redis_bench.p99_us
    && r.Apps.Redis_bench.p99_us >= r.Apps.Redis_bench.p50_us)

let lrange_bench_runs () =
  let r =
    run_on ~local_mem:(1024 * 1024) (fun ctx ->
        Apps.Redis_bench.run_lrange ctx ~lists:50 ~elements:2_000 ~elem_size:64
          ~queries:100 ~range:100 ~seed:3)
  in
  check_int "queries" 100 r.Apps.Redis_bench.requests

let guide_activates_and_helps_lrange () =
  let run with_guide =
    Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.Readahead) ~local_mem:(512 * 1024)
      (fun ctx ->
        let gstats =
          if with_guide then Some (Apps.Redis_guide.install ctx) else None
        in
        let r =
          Apps.Redis_bench.run_lrange ctx ~lists:128 ~elements:20_000
            ~elem_size:100 ~queries:200 ~range:100 ~seed:7
        in
        (r, gstats))
  in
  let plain, _ = (run false).Apps.Harness.value in
  let guided, gstats = (run true).Apps.Harness.value in
  (match gstats with
  | Some st ->
      check_bool "guide activated" true (st.Apps.Redis_guide.lrange_activations > 0);
      check_bool "chained nodes" true (st.Apps.Redis_guide.chained_nodes > 0)
  | None -> Alcotest.fail "guide stats missing");
  check_bool
    (Printf.sprintf "guided %.0f rps >= plain %.0f rps"
       guided.Apps.Redis_bench.throughput_rps plain.Apps.Redis_bench.throughput_rps)
    true
    (guided.Apps.Redis_bench.throughput_rps
    >= 1.1 *. plain.Apps.Redis_bench.throughput_rps)

let guide_get_prefetches_large_values () =
  let run with_guide =
    Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.No_prefetch) ~local_mem:(1024 * 1024)
      (fun ctx ->
        let st = if with_guide then Some (Apps.Redis_guide.install ctx) else None in
        let r =
          Apps.Redis_bench.run_get ctx ~keys:64
            ~size:(Apps.Redis_bench.Fixed 65536) ~queries:128 ~seed:5
        in
        (r, st))
  in
  let plain, _ = (run false).Apps.Harness.value in
  let guided, st = (run true).Apps.Harness.value in
  (match st with
  | Some st -> check_bool "get guide activated" true (st.Apps.Redis_guide.get_activations > 0)
  | None -> Alcotest.fail "stats missing");
  check_bool
    (Printf.sprintf "guided GET %.0f > plain %.0f rps"
       guided.Apps.Redis_bench.throughput_rps plain.Apps.Redis_bench.throughput_rps)
    true
    (guided.Apps.Redis_bench.throughput_rps > plain.Apps.Redis_bench.throughput_rps)

let guided_paging_reduces_del_get_bandwidth () =
  let traffic system =
    (Apps.Harness.run system ~local_mem:(1024 * 1024) (fun ctx ->
         Apps.Redis_bench.run_del_get_bandwidth ctx ~keys:8_000 ~value_bytes:128
           ~del_fraction:0.7 ~seed:9))
      .Apps.Harness.value
  in
  let plain = traffic (Apps.Harness.Dilos Dilos.Kernel.Readahead) in
  let guided = traffic (Apps.Harness.Dilos_guided Dilos.Kernel.Readahead) in
  let total r =
    r.Apps.Redis_bench.get_rx_mb +. r.Apps.Redis_bench.get_tx_mb
  in
  check_bool
    (Printf.sprintf "guided GET traffic %.2fMB < plain %.2fMB" (total guided)
       (total plain))
    true
    (total guided < total plain)

(* ------------------------------------------------------------------ *)
(* result_of_hist guards and value sentinels *)

let result_of_hist_zero_guard () =
  (* queries = 0 / zero duration used to produce nan/inf throughput;
     the guard pins the whole shape to defined zeros. *)
  let empty = Sim.Histogram.create () in
  let r =
    Apps.Redis_bench.result_of_hist ~requests:0 ~time:Sim.Time.zero
      ~kind:Apps.Redis_bench.Service_time empty
  in
  check_int "requests" 0 r.Apps.Redis_bench.requests;
  Alcotest.(check (float 0.)) "throughput is 0, not nan" 0.
    r.Apps.Redis_bench.throughput_rps;
  check_bool "throughput finite" true
    (Float.is_finite r.Apps.Redis_bench.throughput_rps);
  Alcotest.(check (float 0.)) "p50 defined" 0. r.Apps.Redis_bench.p50_us;
  Alcotest.(check (float 0.)) "p999 defined" 0. r.Apps.Redis_bench.p999_us;
  (* requests > 0 but zero elapsed time (all sub-tick): still finite. *)
  let h = Sim.Histogram.create () in
  Sim.Histogram.add h 100;
  let r2 =
    Apps.Redis_bench.result_of_hist ~requests:1 ~time:Sim.Time.zero
      ~kind:Apps.Redis_bench.Response_time h
  in
  check_bool "zero-duration throughput finite" true
    (Float.is_finite r2.Apps.Redis_bench.throughput_rps);
  Alcotest.(check (float 0.)) "zero-duration throughput 0" 0.
    r2.Apps.Redis_bench.throughput_rps

let sentinel_roundtrip_and_detects_corruption () =
  (* Multi-page value: a sentinel at every page boundary, each
     independently checkable. *)
  let v = Bytes.create 20_000 in
  let len = 20_000 in
  Apps.Redis_bench.fill_value v ~len ~index:37;
  check_bool "fresh value verifies" true
    (Apps.Redis_bench.verify_value v ~len ~index:37);
  check_bool "wrong index rejected" false
    (Apps.Redis_bench.verify_value v ~len ~index:38);
  (* Corrupt one byte inside the THIRD page's sentinel: a first-page
     check alone would miss it. *)
  let saved = Bytes.get v 8192 in
  Bytes.set v 8192 (Char.chr (Char.code saved lxor 0xFF));
  check_bool "page-3 corruption detected" false
    (Apps.Redis_bench.verify_value v ~len ~index:37);
  Bytes.set v 8192 saved;
  check_bool "restored value verifies" true
    (Apps.Redis_bench.verify_value v ~len ~index:37);
  (* Small values (no room for a sentinel) still roundtrip. *)
  let small = Bytes.create 5 in
  Apps.Redis_bench.fill_value small ~len:5 ~index:2;
  check_bool "tiny value verifies" true
    (Apps.Redis_bench.verify_value small ~len:5 ~index:2)

let get_bench_verifies_across_eviction () =
  (* 200 x 8KB values >> 512KB local: every value round-trips through
     the memory node and run_get checks every page sentinel. *)
  let r =
    run_on ~local_mem:(512 * 1024) (fun ctx ->
        Apps.Redis_bench.run_get ctx ~keys:200
          ~size:(Apps.Redis_bench.Fixed 8192) ~queries:300 ~seed:11)
  in
  check_int "queries ran (sentinels all verified)" 300
    r.Apps.Redis_bench.requests

let bench_reports_service_time () =
  let r =
    run_on ~local_mem:(1024 * 1024) (fun ctx ->
        Apps.Redis_bench.run_get ctx ~keys:64
          ~size:(Apps.Redis_bench.Fixed 4096) ~queries:64 ~seed:3)
  in
  Alcotest.(check string) "closed loop = service_time" "service_time"
    (Apps.Redis_bench.latency_kind_name r.Apps.Redis_bench.latency_kind)

(* [key_of] and [key_into] fill their digits by hand; both must stay
   byte-identical to the [key:%010d] format they replaced, at both ends
   of the fast range and past them (negative keys, eleven digits). *)
let key_of_matches_sprintf =
  let edges =
    [ 0; 1; 9; 10; 999_999_999; 9_999_999_999; 10_000_000_000; -1; -42; max_int; min_int ]
  in
  QCheck.Test.make ~name:"key_of/key_into match sprintf key:%010d" ~count:1000
    QCheck.(
      make
        Gen.(
          frequency
            [
              (3, oneofl edges);
              (6, int_range 0 9_999_999_999);
              (2, int_range 0 1_000_000);
              (1, int);
            ]))
    (fun i ->
      let want = Printf.sprintf "key:%010d" i in
      let buf = Bytes.make Apps.Redis_bench.key_bytes '#' in
      let before = Bytes.to_string buf in
      let into = Apps.Redis_bench.key_into buf i in
      Bytes.to_string (Apps.Redis_bench.key_of i) = want
      && Bytes.to_string into = want
      (* in range the key lands in [buf]; outside it [buf] is untouched *)
      && (if i >= 0 && i < 10_000_000_000 then into == buf
          else into != buf && Bytes.to_string buf = before))

let suite =
  [
    quick "sds roundtrip" sds_roundtrip;
    quick "sds large value" sds_large_value;
    quick "ziplist append/iter" ziplist_append_iter;
    quick "ziplist capacity respected" ziplist_capacity_respected;
    quick "quicklist push/range" quicklist_push_range;
    quick "quicklist on_node order" quicklist_on_node_fires_in_order;
    quick "quicklist node layout parseable" quicklist_node_layout_parseable;
    quick "dict insert/find/remove" dict_insert_find_remove;
    QCheck_alcotest.to_alcotest dict_model_qcheck;
    quick "redis set/get/del" redis_set_get_del;
    QCheck_alcotest.to_alcotest key_of_matches_sprintf;
    quick "redis lists" redis_lists;
    quick "redis survives eviction" redis_survives_eviction;
    quick "redis GET grows the reply buffer" redis_get_grows_reply_buffer;
    quick "get bench runs" get_bench_runs;
    quick "lrange bench runs" lrange_bench_runs;
    quick "guide activates and helps lrange" guide_activates_and_helps_lrange;
    quick "guide get prefetches large values" guide_get_prefetches_large_values;
    quick "guided paging reduces del/get bandwidth" guided_paging_reduces_del_get_bandwidth;
    quick "result_of_hist zero guard" result_of_hist_zero_guard;
    quick "sentinel roundtrip and corruption detection"
      sentinel_roundtrip_and_detects_corruption;
    quick "get bench verifies sentinels across eviction"
      get_bench_verifies_across_eviction;
    quick "closed-loop bench reports service_time" bench_reports_service_time;
  ]
