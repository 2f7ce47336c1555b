(* The Observatory scenario matrix behind [dilos_sim report].

   Four deterministic runs of one seed — clean baseline, flaky wire,
   flaky wire + shard kill with scripted recovery, and an overloaded
   open-loop serving run — each executed with a fresh metric registry,
   a health monitor, a tracer and fault attribution. The matrix is the
   acceptance harness for the whole telemetry layer: the clean run
   must fire no health events, the faulted runs must fire the expected
   ones, the drill digests must match the clean digest, and every
   scenario's flame profile must reconcile its [fault] root against
   the attribution histogram sums with [=].

   Everything is a pure function of (system, seed): no wall clock, no
   ambient randomness — CI double-runs the report and [cmp]s bytes. *)

type outcome = {
  o_name : string;
  o_fault_spec : string;  (** "" for the clean baseline *)
  o_elapsed_ns : int;
  o_digest : int64 option;  (** drill-kernel digest; [None] for serving *)
  o_registry : Obs.Registry.t;
  o_stats : Sim.Stats.t;
  o_events : Obs.Health.event list;
  o_profile : Obs.Profile.t;
  o_ticks : int;
}

(* Health cadence: long enough for counter deltas to accumulate past
   the retry-storm threshold under the flaky preset, short enough that
   a dozen ticks land inside even the shortest scenario. *)
let interval = Sim.Time.us 200

(* One instrumented run. The registry is installed by [Harness.run]
   before boot (constructors resolve their handles there); the
   tracer, monitor and attribution attach in the observe hook, after
   boot and before the workload fiber. *)
let observed_run ~system ~local_mem ?fault_spec ?fault_seed ~shards
    ~replication work =
  let reg = Obs.Registry.create () in
  let tracer = ref None in
  let monitor = ref None in
  let fault_spec =
    Option.map
      (fun s ->
        match Faults.Spec.parse s with
        | Ok spec -> spec
        | Error msg -> invalid_arg ("Observatory: bad fault spec: " ^ msg))
      fault_spec
  in
  Dilos_trace.set_attribution true;
  Fun.protect ~finally:(fun () ->
      Dilos_trace.set_attribution false;
      Dilos_trace.uninstall ())
  @@ fun () ->
  let result =
    Harness.run system ~local_mem ?fault_spec ?fault_seed ~shards ~replication
      ~obs:reg
      ~observe:(fun ctx ->
        let t =
          Dilos_trace.create ~eng:ctx.Harness.eng ~capacity:(1 lsl 18) ()
        in
        Dilos_trace.install t;
        tracer := Some t;
        monitor :=
          Some
            (Obs.Health.start ~eng:ctx.Harness.eng ~stats:ctx.Harness.stats
               ~registry:reg ~interval ()))
      work
  in
  let profile = Obs.Profile.create () in
  (match !tracer with
  | Some t -> Obs.Profile.add_trace profile t
  | None -> ());
  Obs.Profile.add_attribution profile result.Harness.run_stats;
  let events, ticks =
    match !monitor with
    | Some m -> (Obs.Health.events m, Obs.Health.ticks m)
    | None -> ([], 0)
  in
  (result, reg, events, profile, ticks)

let drill_scenario ~system ~app ~scale ~local_mem ~seed ~name ~fault_spec () =
  let work ctx = Drill.kernel app (ctx.Harness.mem ~core:0) ~scale ~seed in
  let result, reg, events, profile, ticks =
    observed_run ~system ~local_mem
      ?fault_spec:(if fault_spec = "" then None else Some fault_spec)
      ?fault_seed:(if fault_spec = "" then None else Some seed)
      ~shards:2 ~replication:2 work
  in
  {
    o_name = name;
    o_fault_spec = fault_spec;
    o_elapsed_ns = Int64.to_int result.Harness.elapsed;
    o_digest = Some result.Harness.value;
    o_registry = reg;
    o_stats = result.Harness.run_stats;
    o_events = events;
    o_profile = profile;
    o_ticks = ticks;
  }

(* Open-loop serving pushed past the knee: offered load well above
   single-worker service capacity, so the arrival queue climbs through
   the queue-ceiling threshold within the first few health ticks. *)
let overload_scenario ~system ~seed () =
  let stream =
    {
      Workload.Stream.keys = 4096;
      theta = 0.99;
      read_fraction = 0.9;
      value_size = Workload.Stream.Fixed 128;
      arrival = Workload.Arrival.Poisson;
      rate_rps = 2_000_000.;
      seed;
    }
  in
  let cfg = Serving.default_config stream ~requests:4000 in
  let work ctx = Serving.run ctx cfg in
  let result, reg, events, profile, ticks =
    observed_run ~system ~local_mem:(1024 * 1024) ~shards:1 ~replication:1 work
  in
  ignore (result.Harness.value : Serving.result);
  {
    o_name = "overload";
    o_fault_spec = "";
    o_elapsed_ns = Int64.to_int result.Harness.elapsed;
    o_digest = None;
    o_registry = reg;
    o_stats = result.Harness.run_stats;
    o_events = events;
    o_profile = profile;
    o_ticks = ticks;
  }

let run_matrix ?(system = Harness.Dilos Dilos.Kernel.Readahead)
    ?(app = Drill.Seq) ?scale ?(local_mem = 1024 * 1024) ?(seed = 42) () =
  let scale =
    match scale with Some s -> s | None -> Drill.default_scale app
  in
  let drill name fault_spec =
    drill_scenario ~system ~app ~scale ~local_mem ~seed ~name ~fault_spec ()
  in
  let clean = drill "clean" "" in
  (* The kill instant is the drill's: a seeded 25–75% fraction of the
     clean run's elapsed time, with a blackout window modelling the
     detection outage and a scripted recovery 200 us later so the
     matrix also exercises resync. *)
  let kill_at_ns =
    Int.max 1
      (clean.o_elapsed_ns / 1000 * Drill.kill_fraction_permille seed)
  in
  let kill_spec =
    Printf.sprintf
      "flaky,kill-shard=0@%dns,blackout=50000ns@%dns,recover-shard=0@%dns"
      kill_at_ns kill_at_ns
      (kill_at_ns + 200_000)
  in
  [
    clean;
    drill "flaky" "flaky";
    drill "flaky-kill" kill_spec;
    overload_scenario ~system ~seed ();
  ]

(* ---------------------------------------------------------------- *)
(* Reconciliation                                                    *)

let attr_sum stats =
  List.fold_left
    (fun acc (_, n) ->
      match Sim.Stats.histogram_opt stats n with
      | Some h -> acc + Sim.Histogram.sum h
      | None -> acc)
    0 Dilos_trace.attr_components

(* The [fault] root of the flame profile is built from the attribution
   histograms, whose components tile each fault's end-to-end latency
   exactly — so three integer totals must agree with [=]: the profile
   root, the component sums, and the [fault_ns] histogram sum. *)
let reconciles o =
  let profile_fault =
    match List.assoc_opt "fault" (Obs.Profile.totals o.o_profile) with
    | Some v -> v
    | None -> 0
  in
  let components = attr_sum o.o_stats in
  let fault_total =
    match Sim.Stats.histogram_opt o.o_stats "fault_ns" with
    | Some h -> Sim.Histogram.sum h
    | None -> 0
  in
  profile_fault = components && components = fault_total

(* ---------------------------------------------------------------- *)
(* Rendering                                                         *)

let openmetrics o = Obs.Openmetrics.render ~stats:o.o_stats o.o_registry
let folded o = Obs.Profile.folded o.o_profile

let report_json ~system ~seed outcomes =
  let b = Buffer.create 65536 in
  let clean_digest =
    List.find_map
      (fun o -> if o.o_name = "clean" then o.o_digest else None)
      outcomes
  in
  Buffer.add_string b "{\"schema\": \"dilos-obs-report/1\",\n";
  Printf.bprintf b " \"system\": \"%s\", \"seed\": %d,\n"
    (Json.escape (Harness.system_name system))
    seed;
  Buffer.add_string b " \"scenarios\": [\n";
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b "  {\"name\": \"%s\", \"fault_spec\": \"%s\",\n"
        (Json.escape o.o_name)
        (Json.escape o.o_fault_spec);
      Printf.bprintf b "   \"elapsed_ns\": %d, \"health_ticks\": %d,\n"
        o.o_elapsed_ns o.o_ticks;
      (match o.o_digest with
      | None -> Buffer.add_string b "   \"digest\": null, \"digest_match\": null,\n"
      | Some d ->
          Printf.bprintf b "   \"digest\": \"%016Lx\", \"digest_match\": %s,\n" d
            (match clean_digest with
            | Some g -> string_of_bool (Int64.equal g d)
            | None -> "null"));
      Printf.bprintf b "   \"profile_reconciles\": %b,\n" (reconciles o);
      Buffer.add_string b "   \"health_events\": ";
      Obs.Report.health b o.o_events;
      Buffer.add_string b ",\n   \"metrics\": ";
      Obs.Report.metrics b o.o_registry;
      Buffer.add_string b ",\n   \"stats\": ";
      Obs.Report.stats_counters b o.o_stats;
      Buffer.add_string b ",\n   \"histograms\": ";
      Obs.Report.stats_histograms b o.o_stats;
      Buffer.add_string b ",\n   \"profile\": ";
      Obs.Report.profile b o.o_profile;
      Buffer.add_string b "}")
    outcomes;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let event_rules outcomes =
  List.concat_map
    (fun o -> List.map (fun e -> e.Obs.Health.he_rule) o.o_events)
    outcomes
  |> List.sort_uniq String.compare
