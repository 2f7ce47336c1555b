(* Observatory: labeled registry, OpenMetrics export, health
   monitors, flame profiles, and the dilos_sim report scenario
   matrix. *)

open Util

(* ------------------------------------------------------------------ *)
(* Registry *)

let with_registry f =
  let reg = Obs.Registry.create () in
  Obs.Registry.install reg;
  Fun.protect ~finally:Obs.Registry.uninstall (fun () -> f reg)

let test_registry_basics () =
  with_registry @@ fun reg ->
  let c =
    Obs.Registry.counter ~name:"reads" ~labels:[ ("shard", "0") ] ()
  in
  Obs.Registry.cincr c;
  Obs.Registry.cadd c 4;
  check_int "counter counts" 5 (Obs.Registry.cget c);
  (* Resolution is idempotent: same name+labels is the same cell,
     whatever order the labels come in. *)
  let c' =
    Obs.Registry.counter ~name:"reads" ~labels:[ ("shard", "0") ] ()
  in
  Obs.Registry.cincr c';
  check_int "same cell" 6 (Obs.Registry.cget c);
  let g = Obs.Registry.gauge ~name:"depth" () in
  Obs.Registry.gset g 7;
  check_int "gauge" 7 (Obs.Registry.gget g);
  match Obs.Registry.families reg with
  | [ depth; reads ] ->
      check_bool "families name-sorted"
        (depth.Obs.Registry.f_name = "depth"
        && reads.Obs.Registry.f_name = "reads")
        true
  | fams -> Alcotest.failf "expected 2 families, got %d" (List.length fams)

let test_registry_label_order () =
  with_registry @@ fun _reg ->
  let a =
    Obs.Registry.counter ~name:"ops"
      ~labels:[ ("op", "read"); ("qp", "q1") ]
      ()
  in
  let b =
    Obs.Registry.counter ~name:"ops"
      ~labels:[ ("qp", "q1"); ("op", "read") ]
      ()
  in
  Obs.Registry.cincr a;
  check_int "label order canonical" 1 (Obs.Registry.cget b)

let test_registry_type_conflict () =
  with_registry @@ fun _reg ->
  ignore (Obs.Registry.counter ~name:"m" ());
  Alcotest.check_raises "type conflict"
    (Invalid_argument "Obs.Registry: m registered as counter, used as gauge")
    (fun () -> ignore (Obs.Registry.gauge ~name:"m" ()))

let test_registry_sink_when_uninstalled () =
  (* No registry installed: handles resolve to shared sinks and the
     hot path still works — updates just go nowhere. *)
  Alcotest.(check (option reject)) "none installed" None
    (Option.map ignore (Obs.Registry.installed ()));
  let c = Obs.Registry.counter ~name:"orphan" () in
  Obs.Registry.cincr c;
  let reg = Obs.Registry.create () in
  Obs.Registry.install reg;
  Fun.protect ~finally:Obs.Registry.uninstall @@ fun () ->
  check_int "sink left no family" 0 (List.length (Obs.Registry.families reg))

let test_registry_probe () =
  with_registry @@ fun reg ->
  let depth = ref 3 in
  Obs.Registry.probe ~name:"queue" (fun () -> !depth);
  (match Obs.Registry.gauge_series reg "queue" with
  | [ ("", 3) ] -> ()
  | _ -> Alcotest.fail "probe not visible");
  depth := 9;
  (match Obs.Registry.gauge_series reg "queue" with
  | [ ("", 9) ] -> ()
  | _ -> Alcotest.fail "probe not re-evaluated");
  (* Series come back label-sorted and rendered, whatever order they
     registered in; a missing or non-gauge family reads as []. *)
  Obs.Registry.probe ~name:"backlog" ~labels:[ ("shard", "1") ] (fun () -> 5);
  Obs.Registry.probe ~name:"backlog" ~labels:[ ("shard", "0") ] (fun () -> 4);
  ignore (Obs.Registry.counter ~name:"reads" ());
  Alcotest.(check (list (pair string int)))
    "label-sorted, rendered"
    [ ("shard=\"0\"", 4); ("shard=\"1\"", 5) ]
    (Obs.Registry.gauge_series reg "backlog");
  Alcotest.(check (list (pair string int)))
    "counter family is not a gauge" []
    (Obs.Registry.gauge_series reg "reads");
  Alcotest.(check (list (pair string int)))
    "missing family" []
    (Obs.Registry.gauge_series reg "nope")

(* ------------------------------------------------------------------ *)
(* OpenMetrics exporter *)

let test_escape_label_value () =
  Alcotest.(check string)
    "escapes" "a\\\\b\\\"c\\nd"
    (Obs.Openmetrics.escape_label_value "a\\b\"c\nd")

let test_openmetrics_render () =
  with_registry @@ fun reg ->
  let c =
    Obs.Registry.counter ~name:"reads" ~help:"total reads"
      ~labels:[ ("shard", "0") ]
      ()
  in
  Obs.Registry.cadd c 11;
  let doc = Obs.Openmetrics.render reg in
  let has needle =
    let nl = String.length needle and dl = String.length doc in
    let rec go i = i + nl <= dl && (String.sub doc i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "HELP line" true (has "# HELP reads total reads");
  check_bool "TYPE line" true (has "# TYPE reads counter");
  check_bool "_total sample" true (has "reads_total{shard=\"0\"} 11");
  check_bool "EOF terminator" true
    (String.length doc >= 6 && String.sub doc (String.length doc - 6) 6 = "# EOF\n");
  Alcotest.(check string) "render is pure" doc (Obs.Openmetrics.render reg)

(* ------------------------------------------------------------------ *)
(* Health monitor *)

let test_health_rising_edge () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let retries = Sim.Stats.counter stats "rdma_retries" in
  let m =
    Obs.Health.start ~eng ~stats ~interval:(Sim.Time.us 10)
      ~rules:[ Obs.Health.retry_storm () ]
      ()
  in
  (* Storm for 3 intervals, then calm, then storm again: rising-edge
     semantics must yield exactly two events. *)
  Sim.Engine.spawn eng (fun () ->
      for i = 1 to 8 do
        let bumps = if i <= 3 || i = 7 then 6 else 0 in
        for _ = 1 to bumps do
          Sim.Stats.cincr retries
        done;
        Sim.Engine.sleep eng (Sim.Time.us 10)
      done);
  Sim.Engine.run eng;
  let evs = Obs.Health.events m in
  check_int "two rising edges" 2 (List.length evs);
  List.iter
    (fun e ->
      Alcotest.(check string) "rule id" "retry-storm" e.Obs.Health.he_rule;
      check_bool "value >= threshold" true
        (e.Obs.Health.he_value >= e.Obs.Health.he_threshold))
    evs;
  check_bool "chronological" true
    (match evs with
    | [ a; b ] -> Sim.Time.compare a.Obs.Health.he_t b.Obs.Health.he_t < 0
    | _ -> false)

let test_health_gauge_rule () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let reg = Obs.Registry.create () in
  Obs.Registry.install reg;
  Fun.protect ~finally:Obs.Registry.uninstall @@ fun () ->
  let backlog = ref 0 in
  Obs.Registry.probe ~name:"repl_resync_backlog_pages"
    ~labels:[ ("shard", "1") ]
    (fun () -> !backlog);
  let m =
    Obs.Health.start ~eng ~stats ~registry:reg ~interval:(Sim.Time.us 10)
      ~rules:[ Obs.Health.resync_backlog () ]
      ()
  in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.sleep eng (Sim.Time.us 15);
      backlog := 42;
      Sim.Engine.sleep eng (Sim.Time.us 20);
      backlog := 0;
      Sim.Engine.sleep eng (Sim.Time.us 20));
  Sim.Engine.run eng;
  match Obs.Health.events m with
  | [ e ] ->
      Alcotest.(check string) "rule" "resync-backlog" e.Obs.Health.he_rule;
      Alcotest.(check string) "subject" "shard=\"1\"" e.Obs.Health.he_subject;
      check_int "value" 42 e.Obs.Health.he_value
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Profiler *)

let test_profile_fold () =
  let eng = Sim.Engine.create () in
  let tr = Dilos_trace.create ~eng () in
  Dilos_trace.install tr;
  Fun.protect ~finally:Dilos_trace.uninstall @@ fun () ->
  let cat = Dilos_trace.category "test" in
  let cpu = Dilos_trace.track "cpu0" in
  Sim.Engine.spawn eng (fun () ->
      Dilos_trace.span cat ~name:"outer" ~track:cpu (fun () ->
          Sim.Engine.sleep eng (Sim.Time.us 30);
          Dilos_trace.span cat ~name:"inner" ~track:cpu (fun () ->
              Sim.Engine.sleep eng (Sim.Time.us 30));
          Sim.Engine.sleep eng (Sim.Time.us 40)));
  Sim.Engine.run eng;
  let p = Obs.Profile.create () in
  Obs.Profile.add_trace p tr;
  let lookup stack =
    match List.assoc_opt stack (Obs.Profile.lines p) with
    | Some v -> v
    | None -> 0
  in
  (* Self time: outer owns 100us minus the 30us inside inner. *)
  check_int "outer self" 70_000 (lookup "cpu0;outer");
  check_int "inner self" 30_000 (lookup "cpu0;outer;inner");
  match Obs.Profile.totals p with
  | [ ("cpu0", total) ] -> check_int "track total tiles" 100_000 total
  | _ -> Alcotest.fail "expected one cpu0 root"

let test_profile_folded_sorted () =
  let p = Obs.Profile.create () in
  Obs.Profile.add p ~stack:"b;y" 2;
  Obs.Profile.add p ~stack:"a;x" 1;
  Obs.Profile.add p ~stack:"a;x" 3;
  Alcotest.(check string) "sorted, merged" "a;x 4\nb;y 2\n" (Obs.Profile.folded p)

(* ------------------------------------------------------------------ *)
(* Stats ordering (satellite: documented determinism) *)

let test_stats_snapshot_sorted () =
  let stats = Sim.Stats.create () in
  List.iter
    (fun n -> Sim.Stats.cincr (Sim.Stats.counter stats n))
    [ "zeta"; "alpha"; "mu"; "beta" ];
  let names = List.map fst (Sim.Stats.counters stats) in
  Alcotest.(check (list string))
    "counters byte-sorted"
    [ "alpha"; "beta"; "mu"; "zeta" ]
    names;
  let snap = Sim.Stats.snapshot stats in
  Alcotest.(check (list string))
    "snapshot same order" names (List.map fst snap)

(* ------------------------------------------------------------------ *)
(* Interval deltas across a kill/recover drill *)

(* A rule that never fires sees every tick's counter deltas. Counters
   are monotonic, so snapshot-diffing them across a shard kill and its
   recovery must never yield a negative delta; and the deltas must add
   up to each counter's growth over the run (the last tick comes after
   all other work, so nothing moves after it). *)
let test_health_deltas_with_drill () =
  let seen = ref 0 in
  let negative = ref [] in
  let summed = Hashtbl.create 64 in
  let non_negative =
    Obs.Health.rule ~id:"non-negative-deltas" ~severity:Info (fun v ->
        incr seen;
        List.iter
          (fun (name, d) ->
            if d < 0 then negative := (name, d) :: !negative;
            let acc = Option.value (Hashtbl.find_opt summed name) ~default:0 in
            Hashtbl.replace summed name (acc + d))
          v.Obs.Health.v_deltas;
        [])
  in
  let at_start = ref [] in
  let monitor = ref None in
  let spec =
    match
      Faults.Spec.parse "kill-shard=0@200us,recover-shard=0@500us"
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let result =
    Apps.Harness.run
      (Apps.Harness.Dilos Dilos.Kernel.Readahead)
      ~local_mem:(256 * 1024) ~fault_spec:spec ~fault_seed:7 ~shards:2
      ~replication:2
      ~observe:(fun ctx ->
        at_start := Sim.Stats.snapshot ctx.Apps.Harness.stats;
        monitor :=
          Some
            (Obs.Health.start ~eng:ctx.Apps.Harness.eng
               ~stats:ctx.Apps.Harness.stats ~interval:(Sim.Time.us 50)
               ~rules:[ non_negative ] ()))
      (fun ctx ->
        Apps.Drill.kernel Apps.Drill.Seq
          (ctx.Apps.Harness.mem ~core:0)
          ~scale:256 ~seed:7)
  in
  let m = Option.get !monitor in
  (* The drill spans the kill (200 us) and the recovery (500 us). *)
  check_bool "ticked past the recovery" true (Obs.Health.ticks m > 10);
  check_int "the rule saw every tick" (Obs.Health.ticks m) !seen;
  Alcotest.(check (list (pair string int))) "no negative delta" [] !negative;
  check_bool "the drill moved counters" true
    (Sim.Stats.get result.Apps.Harness.run_stats "rdma_reads" > 0);
  List.iter
    (fun (name, final) ->
      let start = Option.value (List.assoc_opt name !at_start) ~default:0 in
      let sum = Option.value (Hashtbl.find_opt summed name) ~default:0 in
      check_int (name ^ ": deltas sum to the run's growth") (final - start) sum)
    (Sim.Stats.counters result.Apps.Harness.run_stats);
  Alcotest.(check (list string)) "never fires" []
    (List.map (fun e -> e.Obs.Health.he_rule) (Obs.Health.events m))

(* ------------------------------------------------------------------ *)
(* The scenario matrix *)

let matrix =
  lazy
    (Apps.Observatory.run_matrix ~app:Apps.Drill.Seq ~scale:256
       ~local_mem:(256 * 1024) ~seed:42 ())

let find name =
  List.find (fun o -> o.Apps.Observatory.o_name = name) (Lazy.force matrix)

let rules o =
  List.map (fun e -> e.Obs.Health.he_rule) o.Apps.Observatory.o_events
  |> List.sort_uniq String.compare

let test_matrix_clean_quiet () =
  let o = find "clean" in
  Alcotest.(check (list string)) "clean fires nothing" [] (rules o);
  check_bool "clean ticked" true (o.Apps.Observatory.o_ticks > 0)

let test_matrix_flaky_storm () =
  let o = find "flaky" in
  check_bool "flaky fires retry-storm" true
    (List.mem "retry-storm" (rules o))

let test_matrix_kill_backlog () =
  let o = find "flaky-kill" in
  let rs = rules o in
  check_bool "kill fires retry-storm" true (List.mem "retry-storm" rs);
  check_bool "kill fires resync-backlog" true (List.mem "resync-backlog" rs);
  (* RF=2, one kill, scripted recovery: nothing may be lost. *)
  check_bool "no tombstones" false (List.mem "tombstone-serving" rs)

let test_matrix_overload_ceiling () =
  let o = find "overload" in
  check_bool "overload fires queue-depth-ceiling" true
    (List.mem "queue-depth-ceiling" (rules o))

let test_matrix_digests_match () =
  let clean = find "clean" in
  List.iter
    (fun name ->
      let o = find name in
      check_i64 (name ^ " digest matches clean")
        (Option.get clean.Apps.Observatory.o_digest)
        (Option.get o.Apps.Observatory.o_digest))
    [ "flaky"; "flaky-kill" ]

let test_matrix_three_rules () =
  check_bool "matrix fires >= 3 distinct rules" true
    (List.length (Apps.Observatory.event_rules (Lazy.force matrix)) >= 3)

let test_matrix_reconciles () =
  List.iter
    (fun o ->
      check_bool
        (o.Apps.Observatory.o_name ^ " profile reconciles")
        true
        (Apps.Observatory.reconciles o))
    (Lazy.force matrix)

let test_matrix_shard_labels () =
  (* Per-shard labeled series must survive into the registry view. *)
  let o = find "flaky-kill" in
  let fams = Obs.Registry.families o.Apps.Observatory.o_registry in
  let reads =
    List.find (fun f -> f.Obs.Registry.f_name = "repl_shard_reads") fams
  in
  let shards =
    List.map
      (fun s ->
        match List.assoc_opt "shard" s.Obs.Registry.s_labels with
        | Some v -> v
        | None -> "?")
      reads.Obs.Registry.f_series
  in
  Alcotest.(check (list string)) "one series per shard" [ "0"; "1" ] shards

let test_report_byte_identity () =
  let system = Apps.Harness.Dilos Dilos.Kernel.Readahead in
  let render () =
    Apps.Observatory.report_json ~system ~seed:42
      (Apps.Observatory.run_matrix ~app:Apps.Drill.Seq ~scale:256
         ~local_mem:(256 * 1024) ~seed:42 ())
  in
  let a = render () and b = render () in
  Alcotest.(check string) "same seed, same bytes" a b

(* Every RDMA op lands in both views: the run's Stats counters and the
   per-QP labeled registry series, readahead windows included. *)
let registry_op_sum reg family op =
  List.fold_left
    (fun acc f ->
      if String.equal f.Obs.Registry.f_name family then
        List.fold_left
          (fun acc s ->
            match
              (List.assoc_opt "op" s.Obs.Registry.s_labels, s.Obs.Registry.s_value ())
            with
            | Some o, Obs.Registry.V n when String.equal o op -> acc + n
            | _ -> acc)
          acc f.Obs.Registry.f_series
      else acc)
    0 (Obs.Registry.families reg)

let test_rdma_registry_matches_stats () =
  List.iter
    (fun (system, fault_spec, fault_name) ->
      let reg = Obs.Registry.create () in
      let r =
        Apps.Harness.run system ~local_mem:(1024 * 1024) ?fault_spec ~obs:reg
          (fun ctx ->
            ignore
              (Apps.Seq.run ctx ~size_bytes:(4 * 1024 * 1024)
                 ~mode:Apps.Seq.Write))
      in
      let name = Apps.Harness.system_name system ^ "/" ^ fault_name in
      let stat = Sim.Stats.get r.Apps.Harness.run_stats in
      check_bool (name ^ ": reads happened") true (stat "rdma_reads" > 0);
      List.iter
        (fun (counter, family, op) ->
          check_int
            (Printf.sprintf "%s: %s = %s{op=%s}" name counter family op)
            (stat counter)
            (registry_op_sum reg family op))
        [
          ("rdma_reads", "rdma_qp_ops", "read");
          ("rdma_read_bytes", "rdma_qp_bytes", "read");
          ("rdma_writes", "rdma_qp_ops", "write");
          ("rdma_write_bytes", "rdma_qp_bytes", "write");
        ])
    [
      (Apps.Harness.Dilos Dilos.Kernel.Readahead, None, "clean");
      (Apps.Harness.Dilos Dilos.Kernel.Readahead, Some Faults.Spec.flaky, "flaky");
      (Apps.Harness.Fastswap, None, "clean");
      (Apps.Harness.Fastswap, Some Faults.Spec.flaky, "flaky");
    ]

let suite =
  [
    quick "registry-basics" test_registry_basics;
    quick "registry-label-order" test_registry_label_order;
    quick "registry-type-conflict" test_registry_type_conflict;
    quick "registry-sink-uninstalled" test_registry_sink_when_uninstalled;
    quick "registry-probe" test_registry_probe;
    quick "openmetrics-escape" test_escape_label_value;
    quick "openmetrics-render" test_openmetrics_render;
    quick "health-rising-edge" test_health_rising_edge;
    quick "health-gauge-rule" test_health_gauge_rule;
    quick "profile-fold" test_profile_fold;
    quick "profile-folded-sorted" test_profile_folded_sorted;
    quick "stats-snapshot-sorted" test_stats_snapshot_sorted;
    quick "health-deltas-with-drill" test_health_deltas_with_drill;
    quick "matrix-clean-quiet" test_matrix_clean_quiet;
    quick "matrix-flaky-retry-storm" test_matrix_flaky_storm;
    quick "matrix-kill-resync-backlog" test_matrix_kill_backlog;
    quick "matrix-overload-queue-ceiling" test_matrix_overload_ceiling;
    quick "matrix-digests-match" test_matrix_digests_match;
    quick "matrix-three-distinct-rules" test_matrix_three_rules;
    quick "matrix-profile-reconciles" test_matrix_reconciles;
    quick "matrix-shard-labels" test_matrix_shard_labels;
    quick "report-byte-identity" test_report_byte_identity;
    quick "rdma-registry-matches-stats" test_rdma_registry_matches_stats;
  ]
