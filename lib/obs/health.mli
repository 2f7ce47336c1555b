(** Deterministic health monitors.

    A rule engine evaluated on periodic sim-time snapshots of the run's
    counters and gauges — the thing that {e watches} a run for
    anomalies instead of leaving them to post-hoc eyeballing. Paced by
    [Sim.Engine.after]: no wall clock, no randomness, and the tick stops
    re-arming once the simulation has no other pending work, so a
    monitor never keeps [Engine.run] alive. It is the project's one
    interval ticker: [dilos_sim run --metrics] writes its per-interval
    CSV from a rule that never fires (see {!view.v_deltas}).

    Rules see an interval {e view} (counter deltas, cumulative totals,
    registry gauge series) and report {e firings}. The monitor applies
    rising-edge semantics per (rule, subject): an event is emitted when
    a condition becomes true, not on every tick it stays true — one
    retry storm is one event, however many intervals it spans. Events
    are also emitted as trace instants (category ["health"]) so they
    line up with spans in the Perfetto view.

    Everything here is a pure function of the run's seed and
    configuration: same seed, same events, same bytes in the report. *)

type severity = Info | Warn | Crit

val severity_name : severity -> string

type event = {
  he_t : Sim.Time.t;  (** sim time of the rising edge *)
  he_rule : string;
  he_severity : severity;
  he_subject : string;  (** rendered label set, [""] for run-global *)
  he_value : int;
  he_threshold : int;
  he_detail : string;
}

(** {2 Rules} *)

type view = {
  v_now : Sim.Time.t;
  v_delta : string -> int;  (** counter delta over the last interval *)
  v_deltas : (string * int) list;
      (** every counter's delta over the last interval, name-sorted
          ([Sim.Stats.diff] of this tick's snapshot against the last) *)
  v_total : string -> int;  (** cumulative counter value *)
  v_gauge : string -> (string * int) list;
      (** gauge family → per-series (label-string, value); [[]] when
          the family does not exist. Reads only that family
          ({!Registry.gauge_series}), evaluating its probes on each
          call. *)
}

type firing = {
  f_subject : string;
  f_value : int;
  f_threshold : int;
  f_detail : string;
}

type rule

val rule : id:string -> severity:severity -> (view -> firing list) -> rule

(** {2 Built-in rules} *)

val retry_storm : unit -> rule
(** [rdma_retries] delta ≥ 5 within one interval: the wire is flapping
    and backoff is doing real work. *)

val resync_backlog : unit -> rule
(** A [repl_resync_backlog_pages] gauge series went positive: a shard
    is dead or resyncing and redundancy is below target. One event per
    shard (the gauge is labeled). *)

val defaults : unit -> rule list
(** The two rules above, plus:
    - [tombstone-serving]: [repl_lost_pages] went positive — the group
      has tombstoned pages, and reads for them will raise [Page_lost];
    - [worker-starvation]: requests queued ([serve_queue_depth] ≥ 1)
      but zero [serve_completed] progress for a full interval — workers
      are alive-but-stuck (e.g. every in-flight fetch is in backoff);
    - [queue-depth-ceiling]: [serve_queue_depth] ≥ 64 — the open-loop
      arrival process is outrunning service capacity (past the knee). *)

(** {2 Monitor} *)

type t

val start :
  eng:Sim.Engine.t ->
  stats:Sim.Stats.t ->
  ?registry:Registry.t ->
  interval:Sim.Time.t ->
  ?rules:rule list ->
  unit ->
  t

val stop : t -> unit

val events : t -> event list
(** Chronological. *)

val ticks : t -> int
