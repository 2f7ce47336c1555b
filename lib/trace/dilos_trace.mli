(** Deterministic tracing and latency attribution for the paging data
    path.

    Design rules (see DESIGN.md §6):

    - {b Sim-time only.} Every timestamp is [Sim.Engine.now]; recording
      never sleeps, never schedules events, never draws randomness. A
      trace is therefore a pure function of the run's seed and
      configuration — same seed, byte-identical bytes — and enabling
      tracing cannot move any simulated result.
    - {b Zero overhead when off.} Categories are handles resolved once
      (mirroring [Sim.Stats.counter]); an instrumentation site costs one
      mutable-bool load when its category is disabled or no tracer is
      installed.
    - {b Bounded memory.} Events land in a fixed-capacity ring; when it
      wraps, the oldest events are dropped (and counted). *)

(** {1 Categories} *)

type cat
(** A named category handle ("fault", "rdma", ...). Resolve once at
    module-init or boot; the per-event enabled check is one bool load. *)

val category : string -> cat
(** Intern a category by name (idempotent). *)

val enabled : cat -> bool
(** [true] iff a tracer is installed and its filter admits this
    category. Use to guard arg computation that is itself costly. *)

(** {1 Tracks}

    A track is one horizontal timeline row in the viewer (a Perfetto
    "thread"): e.g. ["cpu0"], ["nic"], ["memnode"]. *)

val track : string -> int
(** Intern a track by name (idempotent); returns its id. *)

val track_name : int -> string

(** {1 Tracer} *)

type t

val create :
  eng:Sim.Engine.t -> ?capacity:int -> ?cats:string list -> unit -> t
(** [create ~eng ()] makes a tracer with a bounded ring (default 2^16
    events). [?cats] restricts recording to the named categories;
    omitted means record everything. *)

val install : t -> unit
(** Make [t] the active tracer: flips the matching category handles on.
    At most one tracer is active; installing replaces the previous. *)

val uninstall : unit -> unit
(** Deactivate tracing; every category handle reads disabled again. *)

val installed : unit -> t option

val recorded : t -> int
(** Events ever recorded (including those the ring later dropped). *)

val dropped : t -> int
(** Events overwritten by ring wrap-around. *)

(** {1 Event views}

    A read-only projection of the ring for post-run consumers (the
    Observatory's sim-time profiler). Track ids come back resolved to
    names; events are visited oldest-first in ring order. *)

type kind = Sync | Async | Instant

type event_view = {
  vw_kind : kind;
  vw_cat : string;
  vw_name : string;
  vw_track : string;
  vw_t0 : Sim.Time.t;
  vw_t1 : Sim.Time.t;
}

val iter_events : t -> (event_view -> unit) -> unit

(** {1 Spans, instants, flows} *)

type arg = I of int | S of string

val span :
  cat ->
  name:string ->
  track:int ->
  ?async:bool ->
  ?flow_in:int ->
  ?args:(string * arg) list ->
  (unit -> 'a) ->
  'a
(** [span cat ~name ~track f] runs [f] and records the interval from its
    entry to its exit, also when [f] raises. [~async:true] renders as an
    async ("b"/"e") slice, allowed to overlap others on its track — use
    for operations that interleave (RDMA ops in flight). *)

val complete :
  cat ->
  name:string ->
  track:int ->
  t0:Sim.Time.t ->
  ?t1:Sim.Time.t ->
  ?async:bool ->
  ?flow_in:int ->
  ?flow_out:int ->
  ?args:(string * arg) list ->
  unit ->
  unit
(** Retrospective span: record an interval whose start [t0] is already
    known, ending at [?t1] (default: now). The natural shape for
    completion callbacks, where begin/end bookkeeping would have to be
    threaded across async hops. *)

val instant :
  cat -> name:string -> track:int -> ?args:(string * arg) list -> unit -> unit
(** Zero-duration marker. *)

val flow : unit -> int
(** Fresh flow id (an arrow in the viewer linking a producing span to
    consuming spans, e.g. fault → prefetch chain). 0 when tracing is
    off; 0 always means "no flow". *)

(** {1 Export} *)

val to_json : t -> string
(** Chrome/Perfetto [trace_event] JSON. Timestamps are microseconds
    with ns precision, printed as exact fixed-point (no float
    formatting) — same buffer, same bytes. *)

val write_json : t -> string -> unit

(** {1 Latency attribution}

    Per-fault decomposition of a remote fetch (the paper's Fig. 9):

    - {b queueing} — doorbell latency plus time the WR waited for the
      NIC send engine;
    - {b wire} — service latency of the attempt that succeeded;
    - {b backoff} — failed attempts, retry backoff delays and
      re-posting overhead;
    - {b kernel} — the rest of the fault: PTE walk, frame allocation,
      page mapping, and fault-window software work.

    Components of one fault sum to exactly its end-to-end latency. *)

val set_attribution : bool -> unit
(** Enable attribution {e before boot} ([Attr.create] is called at boot
    and returns [None] while disabled). *)

val attribution : unit -> bool

type fetch_attrib = {
  mutable fa_queue_ns : int;
  mutable fa_wire_ns : int;
  mutable fa_backoff_ns : int;
  mutable fa_attempts : int;
}
(** Accumulator threaded through one RDMA fetch; the NIC model fills it
    in as the op progresses ([Rdma.Qp.post ?fa]). *)

val fetch_attrib : unit -> fetch_attrib

val attr_kernel : string
val attr_queue : string
val attr_wire : string
val attr_backoff : string
(** Names of the attribution histograms in [Sim.Stats]. *)

val attr_components : (string * string) list
(** The four components as (label, histogram name), in report order:
    kernel, queueing, wire, backoff. *)

module Attr : sig
  type t

  val create : Sim.Stats.t -> t option
  (** Resolve the four component histograms ([None] while attribution
      is disabled — the per-fault record is then a single option
      check). *)

  val record : t -> total_ns:int -> fetch:fetch_attrib -> unit
  (** Fold one closed fault (end-to-end [total_ns], RDMA components in
      [fetch]) into the histograms. *)
end

type breakdown_row = {
  bd_label : string;
  bd_count : int;
  bd_mean : float;
  bd_p50 : int;
  bd_p99 : int;
}

val breakdown : Sim.Stats.t -> breakdown_row list
(** Reporting view of the attribution histograms (kernel, queueing,
    wire, backoff — rows with no samples omitted). Read-only: does not
    create histograms. *)
