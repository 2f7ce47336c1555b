open Util

(* ------------------------------------------------------------------ *)
(* Int_table vs Hashtbl *)

type itbl_op = Replace of int * int | Remove of int | Find of int | Mem of int

(* Keys from a small pool, so operations hit the same keys often. The
   [lsl 47] family shares one home slot in every table below 2^31
   slots, forcing long probe runs and backward shifts across them. *)
let itbl_key_pool =
  Array.init 48 (fun i -> if i < 24 then i * 7 else 5 + ((i - 23) lsl 47))

let itbl_op_gen =
  let open QCheck.Gen in
  let key = map (fun i -> itbl_key_pool.(i)) (int_bound (Array.length itbl_key_pool - 1)) in
  frequency
    [
      (4, map2 (fun k v -> Replace (k, v)) key small_int);
      (3, map (fun k -> Remove k) key);
      (2, map (fun k -> Find k) key);
      (1, map (fun k -> Mem k) key);
    ]

let itbl_op_print = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k

let int_table_qcheck =
  QCheck.Test.make ~name:"int_table agrees with Hashtbl" ~count:500
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 200) itbl_op_gen)
       ~print:(fun l -> String.concat "; " (List.map itbl_op_print l)))
    (fun ops ->
      (* Created for one entry, so a run grows it several times. *)
      let t = Sim.Int_table.create 1 in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
              Sim.Int_table.replace t k v;
              Hashtbl.replace model k v;
              true
          | Remove k ->
              Sim.Int_table.remove t k;
              Hashtbl.remove model k;
              true
          | Find k ->
              Sim.Int_table.find_opt t k = Hashtbl.find_opt model k
          | Mem k -> Sim.Int_table.mem t k = Hashtbl.mem model k)
          && Sim.Int_table.length t = Hashtbl.length model)
        ops
      &&
      let sorted l = List.sort compare l in
      sorted (Sim.Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
      = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))

let int_table_rejects_min_int () =
  let t = Sim.Int_table.create 4 in
  Alcotest.check_raises "min_int key" (Invalid_argument "Int_table: min_int key")
    (fun () -> Sim.Int_table.replace t min_int 0)

(* ------------------------------------------------------------------ *)
(* Rng *)

let rng_deterministic () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  for _ = 1 to 100 do
    check_i64 "same stream" (Sim.Rng.next64 a) (Sim.Rng.next64 b)
  done

let rng_bounds () =
  let r = Sim.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let rng_float_range () =
  let r = Sim.Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Sim.Rng.float r in
    check_bool "in [0,1)" true (f >= 0. && f < 1.)
  done

let rng_split_independent () =
  let a = Sim.Rng.create 5 in
  let b = Sim.Rng.split a in
  check_bool "different streams" true (Sim.Rng.next64 a <> Sim.Rng.next64 b)

(* Golden splitmix64 streams. Every experiment's event trace descends
   from these bits: if an "optimization" of Rng moves any value below,
   every golden in test_determinism.ml silently re-seeds. Seed 0's first
   output equals the published splitmix64 test vector (0xE220A8397B1DCDAF
   as a signed int64), pinning the algorithm, not just self-consistency. *)
let rng_splitmix64_reference_streams () =
  let check_stream seed expected =
    let r = Sim.Rng.create seed in
    List.iteri
      (fun i v ->
        check_i64 (Printf.sprintf "seed %d draw %d" seed i) v (Sim.Rng.next64 r))
      expected
  in
  check_stream 0
    [
      -2152535657050944081L;
      7960286522194355700L;
      487617019471545679L;
      -537132696929009172L;
      1961750202426094747L;
    ];
  check_stream 1
    [
      -4616330145664149646L;
      6869446166584666695L;
      8084911050856847527L;
      -846397198931878612L;
      3727343498630883515L;
    ];
  check_stream 42
    [
      -7450291807549245335L;
      2958219263312191191L;
      3069497704473277141L;
      885919558081284366L;
      -353919125003956057L;
    ]

let rng_split_stream_stability () =
  (* split derives the child from the parent's next draw and must
     neither disturb the parent stream nor itself drift. *)
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.split a in
  check_i64 "parent continues its stream" 5573481420429128725L (Sim.Rng.next64 a);
  check_i64 "child first" (-4873906296908388014L) (Sim.Rng.next64 b);
  check_i64 "child second" (-1315055668846156530L) (Sim.Rng.next64 b)

let rng_derived_draws_stable () =
  (* int/float/bool are fixed functions of the raw stream; pin them so a
     "harmless" rounding or masking change cannot slip through. Draws
     are collected with an explicit in-order loop — List.init's effect
     order is not a documented guarantee, and the draw order IS the
     thing under test. *)
  let draws n f =
    let acc = ref [] in
    for _ = 1 to n do
      acc := f () :: !acc
    done;
    List.rev !acc
  in
  let r = Sim.Rng.create 42 in
  Alcotest.(check (list int)) "int 1000"
    [ 140; 595; 570; 183; 779 ]
    (draws 5 (fun () -> Sim.Rng.int r 1000));
  let r = Sim.Rng.create 42 in
  Alcotest.(check (list (float 0.)))
    "float"
    [ 0.59611887183020762; 0.16036538759857721; 0.16639780398145976 ]
    (draws 3 (fun () -> Sim.Rng.float r));
  let r = Sim.Rng.create 42 in
  Alcotest.(check (list bool))
    "bool"
    [ true; true; true; false; true; true; true; false ]
    (draws 8 (fun () -> Sim.Rng.bool r))

let rng_shuffle_permutes () =
  let r = Sim.Rng.create 11 in
  let arr = Array.init 50 Fun.id in
  Sim.Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Time *)

let time_units () =
  check_i64 "us" 1_000L (Sim.Time.us 1);
  check_i64 "ms" 1_000_000L (Sim.Time.ms 1);
  check_i64 "s" 1_000_000_000L (Sim.Time.s 1);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Sim.Time.to_us 1_500L);
  check_i64 "us_f rounds" 2_500L (Sim.Time.us_f 2.5)

(* ------------------------------------------------------------------ *)
(* Engine *)

let engine_ordering () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng (Sim.Time.ns 30) (fun () -> log := 3 :: !log);
  Sim.Engine.at eng (Sim.Time.ns 10) (fun () -> log := 1 :: !log);
  Sim.Engine.at eng (Sim.Time.ns 20) (fun () -> log := 2 :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let engine_fifo_ties () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.at eng (Sim.Time.ns 10) (fun () -> log := i :: !log)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "fifo at equal time" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let engine_sleep_advances_clock () =
  let final =
    run_sim (fun eng ->
        Sim.Engine.sleep eng (Sim.Time.us 5);
        Sim.Engine.sleep eng (Sim.Time.us 7);
        Sim.Engine.now eng)
  in
  check_i64 "clock" (Sim.Time.us 12) final

let engine_fibers_overlap () =
  (* Two fibers sleeping 10us in parallel finish at t=10us, not 20. *)
  let eng = Sim.Engine.create () in
  let done_at = ref [] in
  for _ = 1 to 2 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.sleep eng (Sim.Time.us 10);
        done_at := Sim.Engine.now eng :: !done_at)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int64))
    "parallel sleeps" [ Sim.Time.us 10; Sim.Time.us 10 ] !done_at

let engine_exception_propagates () =
  let eng = Sim.Engine.create () in
  Sim.Engine.spawn eng (fun () -> failwith "boom");
  Alcotest.check_raises "fiber exception" (Failure "boom") (fun () ->
      Sim.Engine.run eng)

let engine_past_scheduling_rejected () =
  let eng = Sim.Engine.create () in
  Sim.Engine.at eng (Sim.Time.us 10) (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.at: scheduling in the past")
        (fun () -> Sim.Engine.at eng (Sim.Time.us 5) (fun () -> ())));
  Sim.Engine.run eng

let engine_suspend_wake () =
  let eng = Sim.Engine.create () in
  let wake_fn = ref None in
  let resumed_at = ref Sim.Time.zero in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.suspend eng (fun wake -> wake_fn := Some wake);
      resumed_at := Sim.Engine.now eng);
  Sim.Engine.at eng (Sim.Time.us 3) (fun () -> Option.get !wake_fn ());
  Sim.Engine.run eng;
  check_i64 "resumed when woken" (Sim.Time.us 3) !resumed_at

let engine_heap_precedes_ring_at_same_time () =
  (* An event scheduled EARLIER for absolute time T (it sits in the
     heap) must fire before events scheduled once the clock already
     reached T (they sit in the ready ring): heap seq < any same-time
     ring entry by construction. *)
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng (Sim.Time.ns 10) (fun () ->
      log := "A" :: !log;
      (* now = 10ns: this goes to the ready ring... *)
      Sim.Engine.at eng (Sim.Time.ns 10) (fun () -> log := "C" :: !log));
  (* ...but B was scheduled for 10ns before the clock got there. *)
  Sim.Engine.at eng (Sim.Time.ns 10) (fun () -> log := "B" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "heap first, then ring" [ "A"; "B"; "C" ]
    (List.rev !log)

let engine_ready_ring_fifo_growth () =
  (* Zero-delay events keep FIFO order across ring growth (past the
     initial capacity) and nested scheduling. *)
  let eng = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 100 do
    Sim.Engine.at eng Sim.Time.zero (fun () ->
        log := i :: !log;
        if i <= 50 then
          Sim.Engine.at eng Sim.Time.zero (fun () -> log := (100 + i) :: !log))
  done;
  Sim.Engine.run eng;
  let expect = List.init 100 (fun i -> i + 1) @ List.init 50 (fun i -> 101 + i) in
  Alcotest.(check (list int)) "fifo through growth and nesting" expect
    (List.rev !log)

let engine_yield_round_robin () =
  (* Yielding fibers interleave in spawn order — the ring pops heads
     while re-pushed continuations queue at the tail (wrap-around). *)
  let eng = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        for r = 1 to 3 do
          log := (10 * i) + r :: !log;
          Sim.Engine.yield eng
        done)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "round robin"
    [ 11; 21; 31; 12; 22; 32; 13; 23; 33 ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Condvar *)

let condvar_signal_order () =
  let eng = Sim.Engine.create () in
  let cv = Sim.Condvar.create eng in
  let log = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Condvar.wait cv;
        log := i :: !log)
  done;
  Sim.Engine.at eng (Sim.Time.us 1) (fun () -> Sim.Condvar.signal cv);
  Sim.Engine.at eng (Sim.Time.us 2) (fun () -> Sim.Condvar.broadcast cv);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "waiting order" [ 1; 2; 3 ] (List.rev !log)

let condvar_signal_wakes_one_fifo () =
  (* signal wakes exactly the OLDEST waiter; the queue stays FIFO across
     repeated signals. Determinism-load-bearing: fault handlers block on
     condvars, so wake order decides which fiber's RDMA goes out first. *)
  let eng = Sim.Engine.create () in
  let cv = Sim.Condvar.create eng in
  let log = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Condvar.wait cv;
        log := i :: !log)
  done;
  Sim.Engine.at eng (Sim.Time.us 1) (fun () ->
      Sim.Condvar.signal cv;
      check_int "two still waiting" 2 (Sim.Condvar.waiters cv));
  Sim.Engine.at eng (Sim.Time.us 2) (fun () ->
      check_int "only the oldest woke" 1 (List.length !log);
      check_int "and it was the first waiter" 1 (List.hd !log);
      Sim.Condvar.signal cv);
  Sim.Engine.at eng (Sim.Time.us 3) (fun () ->
      Alcotest.(check (list int)) "second signal woke the second waiter"
        [ 1; 2 ] (List.rev !log));
  Sim.Engine.run eng;
  check_int "third never signalled" 1 (Sim.Condvar.waiters cv)

let condvar_broadcast_wakes_all_fifo () =
  let eng = Sim.Engine.create () in
  let cv = Sim.Condvar.create eng in
  let log = ref [] in
  for i = 1 to 4 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Condvar.wait cv;
        log := (i, Sim.Engine.now eng) :: !log)
  done;
  Sim.Engine.at eng (Sim.Time.us 5) (fun () -> Sim.Condvar.broadcast cv);
  Sim.Engine.run eng;
  Alcotest.(check (list (pair int int64)))
    "all woken, in waiting order, at the broadcast instant"
    [ (1, Sim.Time.us 5); (2, Sim.Time.us 5); (3, Sim.Time.us 5); (4, Sim.Time.us 5) ]
    (List.rev !log);
  check_int "queue drained" 0 (Sim.Condvar.waiters cv)

let condvar_empty_ops_are_noops () =
  let eng = Sim.Engine.create () in
  let cv = Sim.Condvar.create eng in
  Sim.Condvar.signal cv;
  Sim.Condvar.broadcast cv;
  check_int "still no waiters" 0 (Sim.Condvar.waiters cv)

let condvar_late_waiter_queues_behind () =
  (* A fiber that starts waiting after a signal consumed the queue goes
     to the back: the next signal wakes it, not anyone else, and order
     among the survivors is preserved. *)
  let eng = Sim.Engine.create () in
  let cv = Sim.Condvar.create eng in
  let log = ref [] in
  let waiter i =
    Sim.Engine.spawn eng (fun () ->
        Sim.Condvar.wait cv;
        log := i :: !log)
  in
  waiter 1;
  waiter 2;
  Sim.Engine.at eng (Sim.Time.us 1) (fun () -> Sim.Condvar.signal cv);
  Sim.Engine.at eng (Sim.Time.us 2) (fun () -> waiter 3);
  Sim.Engine.at eng (Sim.Time.us 3) (fun () -> Sim.Condvar.signal cv);
  Sim.Engine.at eng (Sim.Time.us 4) (fun () -> Sim.Condvar.signal cv);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "fifo across a late arrival" [ 1; 2; 3 ]
    (List.rev !log)

let condvar_wait_for () =
  let eng = Sim.Engine.create () in
  let cv = Sim.Condvar.create eng in
  let flag = ref false in
  let seen = ref false in
  Sim.Engine.spawn eng (fun () ->
      Sim.Condvar.wait_for cv (fun () -> !flag);
      seen := true);
  (* Spurious wake-up: predicate still false. *)
  Sim.Engine.at eng (Sim.Time.us 1) (fun () -> Sim.Condvar.broadcast cv);
  Sim.Engine.at eng (Sim.Time.us 2) (fun () ->
      flag := true;
      Sim.Condvar.broadcast cv);
  Sim.Engine.run eng;
  check_bool "woke after predicate" true !seen

(* ------------------------------------------------------------------ *)
(* Histogram / Stats *)

let histogram_exact_small () =
  let h = Sim.Histogram.create () in
  List.iter (Sim.Histogram.add h) [ 1; 2; 3; 4; 5 ];
  check_int "count" 5 (Sim.Histogram.count h);
  check_int "min" 1 (Sim.Histogram.min_value h);
  check_int "max" 5 (Sim.Histogram.max_value h);
  Alcotest.(check (float 0.001)) "mean" 3.0 (Sim.Histogram.mean h);
  check_int "median" 3 (Sim.Histogram.quantile h 0.5)

let histogram_quantile_accuracy () =
  let h = Sim.Histogram.create () in
  for v = 1 to 10_000 do
    Sim.Histogram.add h v
  done;
  let p99 = Sim.Histogram.quantile h 0.99 in
  let err = abs (p99 - 9_900) in
  check_bool
    (Printf.sprintf "p99 within 7%% (got %d)" p99)
    true
    (float_of_int err /. 9_900. < 0.07)

let histogram_empty () =
  let h = Sim.Histogram.create () in
  check_int "quantile of empty" 0 (Sim.Histogram.quantile h 0.99);
  check_int "min of empty" 0 (Sim.Histogram.min_value h)

let histogram_merge () =
  let a = Sim.Histogram.create () and b = Sim.Histogram.create () in
  Sim.Histogram.add a 10;
  Sim.Histogram.add b 1_000_000;
  Sim.Histogram.merge_into ~dst:a b;
  check_int "merged count" 2 (Sim.Histogram.count a);
  check_int "merged max" 1_000_000 (Sim.Histogram.max_value a)

(* [mean] is the integer sum over the count; the float running sum it
   replaced must give the very same bits while sums stay below 2^53. *)
let histogram_mean_qcheck =
  QCheck.Test.make ~name:"histogram mean matches a float running sum"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 300) (int_bound 1_000_000_000))
    (fun vs ->
      let h = Sim.Histogram.create () in
      List.iter (Sim.Histogram.add h) vs;
      let fsum = List.fold_left (fun a v -> a +. float_of_int v) 0. vs in
      Int64.equal
        (Int64.bits_of_float (Sim.Histogram.mean h))
        (Int64.bits_of_float (fsum /. float_of_int (List.length vs))))

(* [Histogram.index_of]'s constant-time log2 against the loop it
   replaced (one shift per bit), for values from 0 to 2^62 - 1
   ([max_int]): small ones, powers of two and their neighbours, and
   uniform draws of every width. *)
let histogram_index_qcheck =
  let loop_index v =
    if v < 16 then v
    else
      let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
      let k = log2 v 0 in
      Int.min 1023 (16 + ((k - 4) * 16) + ((v lsr (k - 4)) land 15))
  in
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          int_bound 4096;
          map2 (fun k d -> Int.max 0 ((1 lsl k) + d)) (int_range 0 61) (int_range (-2) 2);
          map2
            (fun k v -> v land ((1 lsl k) - 1))
            (int_range 1 62)
            (map2 (fun hi lo -> (hi lsl 31) lxor lo) (int_bound max_int) (int_bound max_int));
          return max_int;
        ])
  in
  QCheck.Test.make ~name:"histogram index_of equals the per-bit loop" ~count:2000
    (QCheck.make value_gen ~print:string_of_int)
    (fun v -> Int.equal (Sim.Histogram.index_of v) (loop_index v))

(* [Stats.diff] walks both name-sorted snapshots in step; the reference
   looks every name of [cur] up in [base]. Names are drawn from a small
   alphabet so the two snapshots share most names, with some only in
   [cur] (joined between ticks) and some only in [base]. *)
let stats_diff_qcheck =
  let snapshot_gen =
    QCheck.Gen.(
      map
        (fun l -> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) l)
        (list_size (int_range 0 40)
           (pair (string_size ~gen:(char_range 'a' 'd') (int_range 0 3)) nat)))
  in
  let reference ~base cur =
    List.map
      (fun (name, v) ->
        (name, v - Option.value (List.assoc_opt name base) ~default:0))
      cur
  in
  QCheck.Test.make ~name:"stats diff matches the assoc reference" ~count:500
    (QCheck.make QCheck.Gen.(pair snapshot_gen snapshot_gen))
    (fun (base, cur) ->
      List.equal
        (fun (a, x) (b, y) -> String.equal a b && Int.equal x y)
        (Sim.Stats.diff ~base cur) (reference ~base cur))

let histogram_merge_into_fresh_dst () =
  (* A fresh dst still carries the empty sentinels (minv = max_int,
     maxv = 0); merge must adopt the source's extremes or quantile's
     clamp would pin every answer to 0. *)
  let dst = Sim.Histogram.create () and src = Sim.Histogram.create () in
  List.iter (Sim.Histogram.add src) [ 500; 700; 900 ];
  Sim.Histogram.merge_into ~dst src;
  check_int "count" 3 (Sim.Histogram.count dst);
  check_int "min adopted" 500 (Sim.Histogram.min_value dst);
  check_int "max adopted" 900 (Sim.Histogram.max_value dst);
  let p50 = Sim.Histogram.quantile dst 0.5 in
  check_bool
    (Printf.sprintf "median in [500, 900] (got %d)" p50)
    true
    (p50 >= 500 && p50 <= 900);
  (* Merging an EMPTY histogram must not disturb the dst extremes. *)
  Sim.Histogram.merge_into ~dst (Sim.Histogram.create ());
  check_int "min unchanged by empty merge" 500 (Sim.Histogram.min_value dst);
  check_int "max unchanged by empty merge" 900 (Sim.Histogram.max_value dst)

let histogram_reset_restores_sentinels () =
  let h = Sim.Histogram.create () in
  List.iter (Sim.Histogram.add h) [ 10; 20; 1_000_000 ];
  Sim.Histogram.reset h;
  check_int "count zero" 0 (Sim.Histogram.count h);
  check_int "empty min" 0 (Sim.Histogram.min_value h);
  check_int "empty max" 0 (Sim.Histogram.max_value h);
  check_int "empty quantile" 0 (Sim.Histogram.quantile h 0.99);
  Alcotest.(check (float 0.)) "empty mean" 0. (Sim.Histogram.mean h);
  (* After reset the sentinels must track fresh values, not the
     pre-reset extremes. *)
  Sim.Histogram.add h 5;
  check_int "min after reset+add" 5 (Sim.Histogram.min_value h);
  check_int "max after reset+add" 5 (Sim.Histogram.max_value h);
  check_int "p99 after reset+add" 5 (Sim.Histogram.quantile h 0.99)

let histogram_quantile_extremes_single_sample () =
  (* Nearest-rank at the edges: with one sample every quantile —
     including q=0 and q=1 — is that sample. *)
  let h = Sim.Histogram.create () in
  Sim.Histogram.add h 123_456;
  check_int "q=0" 123_456 (Sim.Histogram.quantile h 0.);
  check_int "q=0.5" 123_456 (Sim.Histogram.quantile h 0.5);
  check_int "q=1" 123_456 (Sim.Histogram.quantile h 1.);
  (* Out-of-range q clamps rather than raising. *)
  check_int "q<0 clamps" 123_456 (Sim.Histogram.quantile h (-1.));
  check_int "q>1 clamps" 123_456 (Sim.Histogram.quantile h 2.);
  (* Two distinct samples: q=0 reports the min, q=1 the max. *)
  let h2 = Sim.Histogram.create () in
  Sim.Histogram.add h2 10;
  Sim.Histogram.add h2 1_000_000;
  check_int "q=0 is min" 10 (Sim.Histogram.quantile h2 0.);
  check_int "q=1 is max" 1_000_000 (Sim.Histogram.quantile h2 1.)

let stats_counters () =
  let s = Sim.Stats.create () in
  check_int "missing reads 0" 0 (Sim.Stats.get s "x");
  let c = Sim.Stats.counter s "x" in
  Sim.Stats.cincr c;
  Sim.Stats.cadd c 4;
  check_int "cincr+cadd" 5 (Sim.Stats.get s "x");
  Sim.Histogram.add (Sim.Stats.histogram s "lat") 100;
  check_int "histo count" 1 (Sim.Histogram.count (Sim.Stats.histogram s "lat"));
  Sim.Stats.reset s;
  check_int "reset" 0 (Sim.Stats.get s "x")

let stats_handles_share_cells () =
  let s = Sim.Stats.create () in
  let c = Sim.Stats.counter s "x" in
  Sim.Stats.cincr c;
  Sim.Stats.cadd c 4;
  check_int "handle updates visible to get" 5 (Sim.Stats.get s "x");
  let c' = Sim.Stats.counter s "x" in
  Sim.Stats.cincr c';
  check_int "re-resolving yields the same cell" 6 (Sim.Stats.cget c)

let stats_reset_keeps_handles_valid () =
  let s = Sim.Stats.create () in
  let c = Sim.Stats.counter s "x" in
  Sim.Stats.cadd c 7;
  let h = Sim.Stats.histogram s "lat" in
  Sim.Histogram.add h 42;
  Sim.Stats.reset s;
  check_int "counter zeroed in place" 0 (Sim.Stats.cget c);
  check_int "histogram zeroed in place" 0 (Sim.Histogram.count h);
  Sim.Stats.cincr c;
  Sim.Histogram.add h 9;
  check_int "handle still wired to table" 1 (Sim.Stats.get s "x");
  check_int "histo still wired to table" 1
    (Sim.Histogram.count (Sim.Stats.histogram s "lat"))

(* ------------------------------------------------------------------ *)
(* Cancellable timers *)

let timer_fires () =
  run_sim (fun eng ->
      let fired = ref 0 in
      let tm = Sim.Engine.timer_after eng (Sim.Time.us 5) (fun () -> incr fired) in
      check_bool "pending before" true (Sim.Engine.timer_pending tm);
      Sim.Engine.sleep eng (Sim.Time.us 10);
      check_int "fired once" 1 !fired;
      check_bool "not pending after firing" false (Sim.Engine.timer_pending tm);
      (* Cancelling after the fact is a no-op. *)
      Sim.Engine.cancel tm;
      Sim.Engine.sleep eng (Sim.Time.us 10);
      check_int "still once" 1 !fired)

let timer_cancel () =
  run_sim (fun eng ->
      let fired = ref 0 in
      let tm = Sim.Engine.timer_after eng (Sim.Time.us 5) (fun () -> incr fired) in
      Sim.Engine.cancel tm;
      check_bool "no longer pending" false (Sim.Engine.timer_pending tm);
      Sim.Engine.cancel tm;
      (* double cancel is fine *)
      Sim.Engine.sleep eng (Sim.Time.us 10);
      check_int "never fired" 0 !fired)

let timer_cancel_preserves_order () =
  (* A cancelled timer stays in the heap as a no-op, so every other
     event keeps its (time, seq) slot: the observable sequence is
     exactly as if the timer had never been armed. This is what lets
     a drill cancel its scripted kill and recover timers without
     perturbing the order of everything else. *)
  run_sim (fun eng ->
      let log = ref [] in
      let push x () = log := x :: !log in
      Sim.Engine.at eng (Sim.Time.us 1) (push 1);
      let tm = Sim.Engine.timer_at eng (Sim.Time.us 2) (push 99) in
      Sim.Engine.at eng (Sim.Time.us 2) (push 2);
      Sim.Engine.at eng (Sim.Time.us 3) (push 3);
      Sim.Engine.cancel tm;
      Sim.Engine.sleep eng (Sim.Time.us 5);
      Alcotest.(check (list int)) "order unchanged" [ 1; 2; 3 ] (List.rev !log))

let suite =
  [
    QCheck_alcotest.to_alcotest int_table_qcheck;
    QCheck_alcotest.to_alcotest histogram_mean_qcheck;
    QCheck_alcotest.to_alcotest histogram_index_qcheck;
    QCheck_alcotest.to_alcotest stats_diff_qcheck;
    quick "int_table rejects min_int" int_table_rejects_min_int;
    quick "rng deterministic" rng_deterministic;
    quick "rng bounds" rng_bounds;
    quick "rng float range" rng_float_range;
    quick "rng split independent" rng_split_independent;
    quick "rng splitmix64 reference streams" rng_splitmix64_reference_streams;
    quick "rng split stream stability" rng_split_stream_stability;
    quick "rng derived draws stable" rng_derived_draws_stable;
    quick "rng shuffle permutes" rng_shuffle_permutes;
    quick "time units" time_units;
    quick "engine ordering" engine_ordering;
    quick "engine fifo ties" engine_fifo_ties;
    quick "engine sleep advances clock" engine_sleep_advances_clock;
    quick "engine fibers overlap" engine_fibers_overlap;
    quick "engine exception propagates" engine_exception_propagates;
    quick "engine rejects past scheduling" engine_past_scheduling_rejected;
    quick "engine suspend/wake" engine_suspend_wake;
    quick "engine heap precedes ring at same time"
      engine_heap_precedes_ring_at_same_time;
    quick "engine ready ring fifo growth" engine_ready_ring_fifo_growth;
    quick "engine yield round robin" engine_yield_round_robin;
    quick "condvar signal order" condvar_signal_order;
    quick "condvar signal wakes one, fifo" condvar_signal_wakes_one_fifo;
    quick "condvar broadcast wakes all, fifo" condvar_broadcast_wakes_all_fifo;
    quick "condvar empty signal/broadcast are noops" condvar_empty_ops_are_noops;
    quick "condvar late waiter queues behind" condvar_late_waiter_queues_behind;
    quick "condvar wait_for" condvar_wait_for;
    quick "histogram exact small" histogram_exact_small;
    quick "histogram quantile accuracy" histogram_quantile_accuracy;
    quick "histogram empty" histogram_empty;
    quick "histogram merge" histogram_merge;
    quick "histogram merge into fresh dst" histogram_merge_into_fresh_dst;
    quick "histogram reset restores sentinels" histogram_reset_restores_sentinels;
    quick "histogram quantile extremes" histogram_quantile_extremes_single_sample;
    quick "stats counters" stats_counters;
    quick "stats handles share cells" stats_handles_share_cells;
    quick "stats reset keeps handles valid" stats_reset_keeps_handles_valid;
    quick "timer fires once" timer_fires;
    quick "timer cancel" timer_cancel;
    quick "timer cancel preserves event order" timer_cancel_preserves_order;
  ]
