(** JSON fragments for the structured run-report.

    Buffer-appending emitters, composed by [Apps.Observatory] (the
    [dilos_sim report] scenario matrix) and by [dilos_sim run
    --obs-out] into one document. All integers, fixed field order,
    sorted collections — byte-identical per seed by construction. *)

val metrics : Buffer.t -> Registry.t -> unit
(** Appends a JSON array: one object per family
    [{"name","type","help","series":[{"labels":{..},"value"|"histogram":{..}}]}]. *)

val stats_counters : Buffer.t -> Sim.Stats.t -> unit
(** Appends a JSON object [{"name": value, ...}] (name-sorted). *)

val stats_histograms : Buffer.t -> Sim.Stats.t -> unit
(** Appends a JSON object of non-empty histograms
    [{"name": {"count","sum","min","max","p50","p99","p999"}, ...}]. *)

val health : Buffer.t -> Health.event list -> unit
(** Appends a JSON array of events, chronological. *)

val profile : Buffer.t -> Profile.t -> unit
(** Appends [{"totals": {root: ns, ...}, "stacks": [{"stack","ns"}]}]. *)
