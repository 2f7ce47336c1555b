(* Tests for the deterministic fault-injection subsystem: the spec
   scenario language, the plan mechanics (backoff, stall windows, RNG
   determinism), QP-level recovery behaviour against a faulted memory
   node, and whole-run determinism through the harness. *)

open Util
module Spec = Faults.Spec
module Plan = Faults.Plan

let parse_ok s =
  match Spec.parse s with
  | Ok t -> t
  | Error m -> Alcotest.fail (Printf.sprintf "parse %S failed: %s" s m)

let check_f = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let spec_none_is_zero () =
  check_bool "none is zero" true (Spec.is_zero (parse_ok "none"));
  check_bool "zero is zero" true (Spec.is_zero Spec.zero);
  check_bool "flaky not zero" false (Spec.is_zero Spec.flaky)

let spec_preset_override () =
  let s = parse_ok "flaky,err=0.2" in
  check_f "err overridden" 0.2 s.Spec.error_rate;
  check_f "nack kept from preset" Spec.flaky.Spec.nack_rate s.Spec.nack_rate;
  check_f "dup kept from preset" Spec.flaky.Spec.duplicate_rate
    s.Spec.duplicate_rate

let spec_rate_clamped () =
  (* Rates are probabilities, so anything past 1 is a typo and is
     rejected; legal rates above the ceiling are clamped to it. *)
  let s = parse_ok "err=1.0,nack=0.95,dup=1" in
  check_f "err clamped" Spec.max_rate s.Spec.error_rate;
  check_f "nack clamped" Spec.max_rate s.Spec.nack_rate;
  check_f "dup clamped" Spec.max_rate s.Spec.duplicate_rate

let spec_blackout_window () =
  let s = parse_ok "blackout=1ms@5ms" in
  Alcotest.(check (list (pair int int)))
    "one-shot window" [ (5_000_000, 1_000_000) ] s.Spec.blackouts;
  let s2 = parse_ok "blackout=1ms@5ms,blackout=2us@0" in
  check_int "repeatable" 2 (List.length s2.Spec.blackouts)

let spec_duration_suffixes () =
  let s = parse_ok "timeout=3us,nack-delay=2ms,backoff-max=1s,backoff=500" in
  check_int "us" 3_000 s.Spec.timeout_ns;
  check_int "ms" 2_000_000 s.Spec.nack_delay_ns;
  check_int "s" 1_000_000_000 s.Spec.backoff_max_ns;
  check_int "bare ns" 500 s.Spec.backoff_ns;
  (* The ceiling is never below the base. *)
  let s2 = parse_ok "backoff=3ms,backoff-max=1us" in
  check_int "max raised to base" 3_000_000 s2.Spec.backoff_max_ns

let spec_retries () =
  let s = parse_ok "retries=3" in
  check_int "retries" 3 s.Spec.max_retries

let spec_bad_input () =
  let bad s =
    match Spec.parse s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "parse %S should have failed" s)
    | Error _ -> ()
  in
  bad "bogus-key=1";
  bad "err=notafloat";
  bad "err=5.0";
  (* rates past 1 are typos, not clamp fodder *)
  bad "frobnicate";
  bad "blackout=1ms";
  (* missing @START *)
  bad "timeout=3lightyears"

(* ------------------------------------------------------------------ *)
(* Plan mechanics *)

let mk_plan ?(seed = 7) spec = Plan.make ~seed spec

let plan_backoff_bounds () =
  let spec = { Spec.zero with Spec.backoff_ns = 1_000; backoff_max_ns = 8_000 } in
  let p = mk_plan spec in
  let in_range ~attempt lo hi =
    let b = Int64.to_int (Plan.backoff p ~attempt) in
    check_bool
      (Printf.sprintf "attempt %d: %d in [%d,%d)" attempt b lo hi)
      true
      (b >= lo && b < hi)
  in
  (* base doubles per attempt, jitter adds < base/2 *)
  in_range ~attempt:1 1_000 1_500;
  in_range ~attempt:2 2_000 3_000;
  in_range ~attempt:3 4_000 6_000;
  (* capped at backoff_max from attempt 4 on, even for huge attempts *)
  in_range ~attempt:4 8_000 12_000;
  in_range ~attempt:60 8_000 12_000

let plan_stall_one_shot () =
  let spec = { Spec.zero with Spec.blackouts = [ (100, 50) ] } in
  let p = mk_plan spec in
  Alcotest.(check (option int64)) "before" None (Plan.stall_end_at p 99L);
  Alcotest.(check (option int64)) "at start" (Some 150L) (Plan.stall_end_at p 100L);
  Alcotest.(check (option int64)) "inside" (Some 150L) (Plan.stall_end_at p 149L);
  Alcotest.(check (option int64)) "at end" None (Plan.stall_end_at p 150L)

let plan_stall_periodic () =
  let spec =
    { Spec.zero with Spec.blackout_period_ns = 1_000; blackout_len_ns = 100 }
  in
  let p = mk_plan spec in
  Alcotest.(check (option int64)) "first window" (Some 100L)
    (Plan.stall_end_at p 0L);
  Alcotest.(check (option int64)) "between" None (Plan.stall_end_at p 500L);
  Alcotest.(check (option int64)) "second window" (Some 1_100L)
    (Plan.stall_end_at p 1_050L)

let plan_wire_deterministic () =
  let spec = { Spec.flaky with Spec.error_rate = 0.3; nack_rate = 0.3 } in
  let draw seed =
    let p = Plan.make ~seed spec in
    List.init 200 (fun i ->
        let w = Plan.wire_cell () in
        Plan.wire p ~completion:(Int64.of_int ((i * 10) + 5)) w;
        (w.Plan.w_error, w.Plan.w_duplicate, w.Plan.w_retransmitted,
         w.Plan.w_completion))
  in
  let a = draw 11 and b = draw 11 and c = draw 12 in
  check_bool "same seed, same outcomes" true (a = b);
  check_bool "different seed, different outcomes" false (a = c)

let plan_passthrough () =
  check_bool "zero spec is passthrough" true (Plan.passthrough (mk_plan Spec.zero));
  check_bool "flaky is not" false (Plan.passthrough (mk_plan Spec.flaky));
  let stall_only =
    { Spec.zero with Spec.blackout_period_ns = 1_000; blackout_len_ns = 10 }
  in
  check_bool "stall-only is not passthrough" false
    (Plan.passthrough (mk_plan stall_only))

(* ------------------------------------------------------------------ *)
(* QP-level recovery against a faulted memory node *)

let mk_faulted_fabric eng ?stats ~seed spec =
  let store = Memnode.Page_store.create ~size:(Int64.of_int (1 lsl 24)) in
  let fabric =
    Rdma.Fabric.connect ~eng
      ~faults:(Plan.make ~seed spec)
      ?stats
      ~target:(Memnode.Page_store.target store)
      ~size:(Int64.of_int (1 lsl 24))
      ()
  in
  (store, fabric)

let qp_retries_are_transparent () =
  run_sim (fun eng ->
      let stats = Sim.Stats.create () in
      let spec = { Spec.zero with Spec.error_rate = 0.5 } in
      let store, fabric = mk_faulted_fabric eng ~stats ~seed:3 spec in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      for i = 0 to 49 do
        let src =
          Sim.Bigbuf.of_string (String.make 8 (Char.chr (Char.code 'a' + (i mod 26))))
        in
        Rdma.Qp.write qp ~raddr:(Int64.of_int (i * 64)) ~buf:src ~off:0 ~len:8
      done;
      for i = 0 to 49 do
        let dst = Sim.Bigbuf.create 8 in
        Rdma.Qp.read qp ~raddr:(Int64.of_int (i * 64)) ~buf:dst ~off:0 ~len:8;
        Alcotest.(check string)
          (Printf.sprintf "slot %d" i)
          (String.make 8 (Char.chr (Char.code 'a' + (i mod 26))))
          (Bytes.to_string (Sim.Bigbuf.to_bytes dst ~off:0 ~len:8))
      done;
      check_bool "errors were injected" true
        (Sim.Stats.get stats "rdma_comp_errors" > 0);
      check_bool "and retried" true (Sim.Stats.get stats "rdma_retries" > 0);
      check_int "no failure ever surfaced" 0
        (Sim.Stats.get stats "rdma_perm_failures");
      check_int "retried writes left nothing staged" 0
        (Memnode.Page_store.staged store))

let qp_nack_and_dup_accounting () =
  run_sim (fun eng ->
      let stats = Sim.Stats.create () in
      let spec =
        { Spec.zero with Spec.nack_rate = 0.9; duplicate_rate = 0.9 }
      in
      let _store, fabric = mk_faulted_fabric eng ~stats ~seed:5 spec in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let dst = Sim.Bigbuf.create 4096 in
      for i = 0 to 19 do
        Rdma.Qp.read qp ~raddr:(Int64.of_int (i * 4096)) ~buf:dst ~off:0
          ~len:4096
      done;
      check_bool "nack delays recorded" true
        (Sim.Stats.get stats "rdma_retrans_delays" > 0);
      check_bool "dup completions recorded" true
        (Sim.Stats.get stats "rdma_dup_completions" > 0);
      (* NACKs and dups are not errors: one attempt per op. *)
      check_int "one attempt per read" 20 (Sim.Stats.get stats "rdma_reads"))

let qp_blackout_timeouts_then_recovers () =
  run_sim (fun eng ->
      let stats = Sim.Stats.create () in
      let spec =
        {
          Spec.zero with
          Spec.blackouts = [ (0, 1_000_000) ] (* 1 ms dead from t=0 *);
          timeout_ns = 10_000;
          backoff_ns = 5_000;
          backoff_max_ns = 50_000;
          max_retries = 1_000;
        }
      in
      let _store, fabric = mk_faulted_fabric eng ~stats ~seed:1 spec in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      Rdma.Qp.write qp ~raddr:0L ~buf:(Sim.Bigbuf.of_string "persist!") ~off:0
        ~len:8;
      let dst = Sim.Bigbuf.create 8 in
      Rdma.Qp.read qp ~raddr:0L ~buf:dst ~off:0 ~len:8;
      Alcotest.(check string) "data survives the blackout" "persist!"
        (Bytes.to_string (Sim.Bigbuf.to_bytes dst ~off:0 ~len:8));
      check_bool "timeouts fired" true (Sim.Stats.get stats "rdma_timeouts" > 0);
      check_bool "finished after the blackout lifted" true
        (Int64.compare (Sim.Engine.now eng) 1_000_000L >= 0))

let qp_permanent_failure_surfaces () =
  run_sim (fun eng ->
      let stats = Sim.Stats.create () in
      let spec =
        {
          Spec.zero with
          Spec.blackouts = [ (0, 1_000_000_000) ] (* 1 s: unreachable *);
          timeout_ns = 10_000;
          backoff_ns = 1_000;
          backoff_max_ns = 10_000;
          max_retries = 3;
        }
      in
      let _store, fabric = mk_faulted_fabric eng ~stats ~seed:1 spec in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let completed = ref false and failed = ref false in
      Rdma.Qp.post_read qp
        ~on_error:(fun () -> failed := true)
        ~segs:[ { Rdma.Qp.raddr = 0L; loff = 0; len = 4096 } ]
        ~buf:(Sim.Bigbuf.create 4096)
        ~on_complete:(fun () -> completed := true);
      Sim.Engine.sleep eng (Sim.Time.ms 2);
      check_bool "on_error fired" true !failed;
      check_bool "on_complete never fired" false !completed;
      check_int "one permanent failure" 1
        (Sim.Stats.get stats "rdma_perm_failures");
      (* max_retries is the attempt budget: 3 attempts = 2 retries. *)
      check_int "retry budget honoured" 2 (Sim.Stats.get stats "rdma_retries"));
  (* A WRITE abandoned in a short blackout lands nothing and unstages
     its payload exactly once: the two writes posted after the
     blackout stage distinct payloads, each holding its post-time
     bytes although the source is overwritten after every post. *)
  run_sim (fun eng ->
      let stats = Sim.Stats.create () in
      let spec =
        {
          Spec.zero with
          Spec.blackouts = [ (0, 100_000) ] (* 100 us *);
          timeout_ns = 10_000;
          backoff_ns = 1_000;
          backoff_max_ns = 10_000;
          max_retries = 3;
        }
      in
      let store, fabric = mk_faulted_fabric eng ~stats ~seed:1 spec in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let page raddr = [ { Rdma.Qp.raddr; loff = 0; len = 4096 } ] in
      let src = Sim.Bigbuf.create 4096 in
      let fill c = Sim.Bigbuf.fill src ~off:0 ~len:4096 c in
      let failed = ref false and landed = ref 0 in
      fill 'X';
      Rdma.Qp.post_write qp
        ~on_error:(fun () -> failed := true)
        ~segs:(page 0x2000L) ~buf:src
        ~on_complete:(fun () -> Alcotest.fail "abandoned write completed");
      Sim.Engine.sleep eng (Sim.Time.us 200);
      check_bool "write abandoned in the blackout" true !failed;
      check_int "abandoned write unstaged" 0 (Memnode.Page_store.staged store);
      check_int "abandoned write holds nothing" 0
        (Memnode.Page_store.held_bytes store);
      fill 'A';
      Rdma.Qp.post_write qp ~on_error:(fun () -> Alcotest.fail "write A failed")
        ~segs:(page 0L) ~buf:src
        ~on_complete:(fun () -> incr landed);
      fill 'B';
      Rdma.Qp.post_write qp ~on_error:(fun () -> Alcotest.fail "write B failed")
        ~segs:(page 0x1000L) ~buf:src
        ~on_complete:(fun () -> incr landed);
      fill 'C';
      check_int "two writes staged in flight" 2 (Memnode.Page_store.staged store);
      Sim.Engine.sleep eng (Sim.Time.us 100);
      check_int "both writes landed" 2 !landed;
      check_int "and were adopted" 0 (Memnode.Page_store.staged store);
      check_int "two dense blocks held" (2 * 4096)
        (Memnode.Page_store.held_bytes store);
      let read_back raddr =
        let dst = Sim.Bigbuf.create 4096 in
        Rdma.Qp.read qp ~raddr ~buf:dst ~off:0 ~len:4096;
        Bytes.to_string (Sim.Bigbuf.to_bytes dst ~off:0 ~len:4096)
      in
      Alcotest.(check string) "first write's payload" (String.make 4096 'A')
        (read_back 0L);
      Alcotest.(check string) "second write's payload" (String.make 4096 'B')
        (read_back 0x1000L);
      Alcotest.(check string) "abandoned write landed nothing"
        (String.make 4096 '\000') (read_back 0x2000L);
      check_int "one permanent failure" 1
        (Sim.Stats.get stats "rdma_perm_failures"))

(* A READ whose replica set is gone completes like a success in the
   attribution, with or without a wire-fault plan: its queue and wire
   time tile the interval from the post to [on_error]. *)
let qp_unreachable_attribution () =
  List.iter
    (fun faults ->
      run_sim (fun eng ->
          let stats = Sim.Stats.create () in
          let target =
            {
              Rdma.Qp.t_read =
                (fun raddr _ _ _ -> raise (Rdma.Qp.Unreachable raddr));
              t_stage = (fun _ _ _ -> 0);
              t_land = (fun _ _ _ -> ());
              t_unstage = ignore;
            }
          in
          let fabric =
            Rdma.Fabric.connect ~eng ?faults ~stats ~target
              ~size:(Int64.of_int (1 lsl 24)) ()
          in
          let qp = Rdma.Fabric.qp fabric ~name:"t" in
          let fa = Trace.fetch_attrib () in
          let t0 = Sim.Engine.now eng in
          let failed_at = ref None in
          Rdma.Qp.post_read qp ~fa
            ~on_error:(fun () -> failed_at := Some (Sim.Engine.now eng))
            ~segs:[ { Rdma.Qp.raddr = 0L; loff = 0; len = 4096 } ]
            ~buf:(Sim.Bigbuf.create 4096)
            ~on_complete:(fun () -> Alcotest.fail "unreachable read completed");
          Sim.Engine.sleep eng (Sim.Time.ms 1);
          match !failed_at with
          | None -> Alcotest.fail "on_error never fired"
          | Some t1 ->
              check_int "queue + wire + backoff = post to on_error"
                (Int64.to_int (Sim.Time.sub t1 t0))
                Trace.(fa.fa_queue_ns + fa.fa_wire_ns + fa.fa_backoff_ns);
              check_int "one attempt" 1 fa.Trace.fa_attempts;
              check_int "one permanent failure" 1
                (Sim.Stats.get stats "rdma_perm_failures")))
    [
      None;
      Some (Plan.make ~seed:1 { Spec.zero with Spec.duplicate_rate = 0.5 });
    ]

(* ------------------------------------------------------------------ *)
(* Whole-run determinism through the harness *)

module H = Apps.Harness

let campaign system spec seed =
  (* 60k int64s (480 KiB) against 256 KiB of local DRAM: the sort pages
     constantly, so the campaign actually reaches the wire. *)
  let r =
    H.run system ~local_mem:(256 * 1024) ~fault_spec:spec ~fault_seed:seed
      (fun ctx -> Apps.Quicksort.run ctx ~n:60_000 ~seed:9)
  in
  check_bool "sorted" true r.H.value.Apps.Quicksort.checked;
  (r.H.elapsed, Sim.Stats.counters r.H.run_stats)

(* The flaky campaigns must actually exercise the recovery machinery,
   not just complete: errors were injected, every errored attempt was
   retried (each retry sleeps a backoff interval), NACK delays were
   paid, and none of it ever surfaced to the kernel. *)
let assert_recovery_exercised name c =
  let get k = try List.assoc k c with Not_found -> 0 in
  check_bool (name ^ ": completion errors injected") true
    (get "rdma_comp_errors" > 0);
  check_bool (name ^ ": errored attempts retried (with backoff)") true
    (get "rdma_retries" > 0);
  check_bool (name ^ ": NACK retransmission delays paid") true
    (get "rdma_retrans_delays" > 0);
  check_int (name ^ ": nothing failed permanently") 0
    (get "rdma_perm_failures")

let run_determinism () =
  let e1, c1 = campaign (H.Dilos Dilos.Kernel.Readahead) Spec.flaky 21 in
  let e2, c2 = campaign (H.Dilos Dilos.Kernel.Readahead) Spec.flaky 21 in
  check_i64 "same elapsed" e1 e2;
  Alcotest.(check (list (pair string int))) "same counters" c1 c2;
  assert_recovery_exercised "dilos" c1;
  let e3, _ = campaign (H.Dilos Dilos.Kernel.Readahead) Spec.flaky 22 in
  check_bool "different seed perturbs the run" true (not (Int64.equal e1 e3))

let run_fastswap_determinism () =
  let e1, c1 = campaign H.Fastswap Spec.flaky 21 in
  let e2, c2 = campaign H.Fastswap Spec.flaky 21 in
  check_i64 "same elapsed" e1 e2;
  Alcotest.(check (list (pair string int))) "same counters" c1 c2;
  assert_recovery_exercised "fastswap" c1

let zero_spec_is_bit_identical () =
  (* A zero-rate spec must take the passthrough code path: bit-identical
     to not passing a spec at all. *)
  let plain =
    H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:(256 * 1024) (fun ctx ->
        Apps.Quicksort.run ctx ~n:60_000 ~seed:9)
  in
  let e1, c1 = campaign (H.Dilos Dilos.Kernel.Readahead) Spec.zero 21 in
  check_i64 "same elapsed" plain.H.elapsed e1;
  Alcotest.(check (list (pair string int)))
    "same counters"
    (Sim.Stats.counters plain.H.run_stats)
    c1

let suite =
  [
    quick "spec: none is zero" spec_none_is_zero;
    quick "spec: preset + override" spec_preset_override;
    quick "spec: rates clamped" spec_rate_clamped;
    quick "spec: blackout windows" spec_blackout_window;
    quick "spec: duration suffixes" spec_duration_suffixes;
    quick "spec: retries" spec_retries;
    quick "spec: bad input rejected" spec_bad_input;
    quick "plan: backoff bounded exponential" plan_backoff_bounds;
    quick "plan: one-shot stall window" plan_stall_one_shot;
    quick "plan: periodic stall window" plan_stall_periodic;
    quick "plan: wire outcomes deterministic" plan_wire_deterministic;
    quick "plan: passthrough detection" plan_passthrough;
    quick "qp: retries are transparent" qp_retries_are_transparent;
    quick "qp: nack/dup accounting" qp_nack_and_dup_accounting;
    quick "qp: blackout timeouts then recovers" qp_blackout_timeouts_then_recovers;
    quick "qp: permanent failure surfaces" qp_permanent_failure_surfaces;
    quick "qp: unreachable READ tiles attribution" qp_unreachable_attribution;
    quick "run: dilos campaign deterministic" run_determinism;
    quick "run: fastswap campaign deterministic" run_fastswap_determinism;
    quick "run: zero spec bit-identical to none" zero_spec_is_bit_identical;
  ]
