(** The Observatory scenario matrix — the engine behind
    [dilos_sim report].

    Runs one seed through four instrumented scenarios (clean baseline,
    flaky wire, flaky wire + shard kill with scripted recovery, and an
    overloaded open-loop serving run), each with a fresh labeled metric
    registry, a health monitor, a tracer and fault attribution. The
    expected health signature: the clean run fires {e nothing}, flaky
    fires [retry-storm], flaky-kill adds [resync-backlog], and the
    overload run fires [queue-ceiling].

    Deterministic end to end: same (system, seed) — same report bytes,
    same OpenMetrics bytes, same folded stacks. *)

type outcome = {
  o_name : string;
  o_fault_spec : string;  (** "" for the clean baseline *)
  o_elapsed_ns : int;
  o_digest : int64 option;  (** drill-program digest; [None] for serving *)
  o_registry : Obs.Registry.t;
  o_stats : Sim.Stats.t;
  o_events : Obs.Health.event list;
  o_profile : Obs.Profile.t;
  o_ticks : int;  (** health-monitor ticks that ran *)
}

val run_matrix :
  ?system:Harness.system ->
  ?program:Drill.program ->
  ?scale:int ->
  ?local_mem:int ->
  ?seed:int ->
  unit ->
  outcome list
(** The four scenarios, in order: [clean]; [flaky]; [flaky-kill]
    (kill + blackout at the drill's seeded instant, recovery 200 us
    later); [overload]. Defaults: DiLOS/readahead, {!Drill.seq} at its
    default scale, seed 42. *)

val reconciles : outcome -> bool
(** [true] iff the flame profile's [fault] root total, the attribution
    histogram sums and the [fault_ns] histogram sum agree exactly. *)

val report_json : system:Harness.system -> seed:int -> outcome list -> string
(** The structured run-report: one JSON document embedding, per
    scenario, health events, labeled metrics, flat stats, histograms
    and the folded profile. Byte-identical per (system, seed). *)

val openmetrics : outcome -> string
(** One scenario's OpenMetrics exposition (registry + flat stats). *)

val folded : outcome -> string
(** One scenario's collapsed-stack flame profile. *)

val event_rules : outcome list -> string list
(** Distinct rule ids fired anywhere in the matrix, sorted. *)
