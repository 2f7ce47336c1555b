(** Labeled metric registry — the Observatory's core table.

    [Sim.Stats] is a flat, per-run string→int table; this registry adds
    the dimension Stats cannot express: {e labels}. One metric family
    ("repl_shard_reads") holds many series, one per label set
    ([shard="0"], [shard="1"], ...), so per-shard / per-app / per-phase
    slices survive into the exported report instead of being summed
    away.

    The concurrency model mirrors [Dilos_trace]: at most one registry
    is {e installed} (ambient); instrumented components resolve their
    handles against whatever is installed at boot. When none is
    installed, resolution returns a shared sink handle whose updates go
    nowhere — the hot path pays the same one-increment cost either way
    and never branches on "is observability on".

    Determinism: families and series are stored unordered but every
    reporting view ([families]) sorts by family name then label set
    with [String.compare], so exported bytes are a pure function of
    what was registered, never of registration order or hash state.

    Label cardinality rule (enforced by review, documented in DESIGN.md
    §6): label values must come from a set that is O(configuration) —
    shard ids, app names, phase names, op kinds. Never put keys,
    addresses or timestamps in a label value. *)

type t

val create : unit -> t
val install : t -> unit
val uninstall : unit -> unit
val installed : unit -> t option

(** {2 Handles}

    Resolve at boot (kernel/QP/replica-group constructors), update on
    the hot path. Resolution is O(families × series) list scans — boot
    only; lint rule [obs-boot-only] flags resolution reachable from a
    hot module's steady state. *)

type counter
type gauge

val counter :
  name:string -> ?help:string -> ?labels:(string * string) list -> unit -> counter
(** Resolve (creating if needed) one counter series in the installed
    registry. Idempotent: the same [name]+[labels] returns the same
    cell. Raises [Invalid_argument] if [name] exists with a different
    metric type. *)

val cincr : counter -> unit
val cadd : counter -> int -> unit
val cget : counter -> int

val gauge :
  name:string -> ?help:string -> ?labels:(string * string) list -> unit -> gauge
(** A set-valued instantaneous metric (queue depth, backlog pages). *)

val gset : gauge -> int -> unit
val gget : gauge -> int

val probe :
  name:string ->
  ?help:string ->
  ?labels:(string * string) list ->
  (unit -> int) ->
  unit
(** Register a gauge series backed by a closure, evaluated at each
    export / health tick instead of being pushed to. The closure must
    be pure sim-state inspection: no allocation constraints, but it
    must not sleep, schedule or draw randomness. No-op when no registry
    is installed. *)

val histogram :
  name:string ->
  ?help:string ->
  ?labels:(string * string) list ->
  unit ->
  Sim.Histogram.t
(** A labeled latency histogram series ([Sim.Histogram] cell; record
    with [Sim.Histogram.add] — alloc-free). *)

(** {2 Reporting views} *)

type mtype = Counter | Gauge | Histogram

type value = V of int | H of Sim.Histogram.t

type series = { s_labels : (string * string) list; s_value : unit -> value }
(** Labels sorted by label name; [s_value] re-evaluates probes. *)

type family = {
  f_name : string;
  f_help : string;
  f_type : mtype;
  f_series : series list;
}

val families : t -> family list
(** Sorted by family name; series sorted by label values. Byte-stable:
    independent of registration order. *)

val gauge_series : t -> string -> (string * int) list
(** [gauge_series t name] is gauge family [name]'s series as
    [(label-string, value)], sorted like {!families}, probes evaluated
    now — the health monitors' per-tick sampling view. Label-string is
    the rendered label set (["shard=\"1\""]), "" for the empty set.
    [[]] when [name] is not a gauge family. Costs one family lookup
    and a sort of that family's series; each label set is rendered
    once, on first read. *)
