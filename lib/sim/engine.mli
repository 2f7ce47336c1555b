(** Discrete-event simulation engine with effect-handler fibers.

    A simulation is a set of fibers sharing one virtual clock. A fiber
    runs uninterrupted OCaml code until it blocks — by sleeping for a
    simulated duration or by suspending on an external wake-up (see
    {!Condvar}). Parallelism between simulated cores emerges naturally:
    two fibers sleeping over the same interval overlap in simulated
    time.

    Determinism: events at equal timestamps fire in the order they were
    scheduled. Internally, events in the future sit in a binary heap
    ordered by (time, sequence number); events scheduled at the current
    instant — fiber wakes, {!yield}, zero-delay {!at} — go to a FIFO
    ready ring in O(1). The split preserves the global order: a heap
    event at time [T] was necessarily scheduled before the clock
    reached [T], so it precedes every ring entry, and the ring's FIFO
    order equals sequence order among same-instant events.

    A {!lane} keeps a source's events that come in nondecreasing time
    order (one RDMA QP's completions) out of the heap: they wait in
    the lane's FIFO, each with the sequence number it took when
    scheduled, and only the head sits in the heap. The order is
    exactly the one {!at} gives; the heap just stays small.

    A sleep that has to park ({!sleep_until}) is one heap event that
    resumes the fiber itself, or queues it on the ring behind whatever
    is due at the same instant: the order of a wake, without one. *)

type t

val create : unit -> t

val now : t -> Time.t
(** Current simulated time. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] schedules fiber [f] to start at the current time.
    Exceptions escaping a fiber abort the simulation run. *)

val at : t -> Time.t -> (unit -> unit) -> unit
(** [at t when_ f] schedules callback [f] (not a fiber: it must not
    block) at absolute time [when_], which must not be in the past. *)

val after : t -> Time.t -> (unit -> unit) -> unit
(** [after t delay f] is [at t (now t + delay) f]. *)

type timer
(** A cancellable scheduled callback (e.g. a scripted shard kill that
    a drill may call off). Cancelling does not disturb the
    (time, seq) ordering of any other event: the slot simply fires as
    a no-op. *)

val timer_at : t -> Time.t -> (unit -> unit) -> timer
(** Like {!at}, but returns a handle that {!cancel} can disarm. *)

val timer_after : t -> Time.t -> (unit -> unit) -> timer

val cancel : timer -> unit
(** Disarm a timer. No-op if it already fired or was cancelled. *)

val timer_pending : timer -> bool
(** [true] until the timer fires or is cancelled. *)

type lane
(** A FIFO of scheduled callbacks whose head alone sits in the event
    heap. *)

val lane : t -> lane
(** A new, empty lane of the engine. *)

val lane_at : lane -> Time.t -> (unit -> unit) -> unit
(** [lane_at l when_ f] is [at t when_ f] for [l]'s engine [t]: the
    callback fires at the same point of the global (time, seq) order.
    When [when_] is no earlier than the last callback queued on [l],
    [f] waits in the lane until the callbacks before it have fired;
    an earlier one goes to the heap directly. Allocates nothing but
    the lane's own growth. *)

val sleep : t -> Time.t -> unit
(** [sleep t d] is [sleep_until t (now t + d)]. Must be called from
    inside a fiber. *)

val sleep_until : t -> Time.t -> unit
(** Block the calling fiber until an absolute simulated time (no-op if
    the time has already passed). Must be called from inside a fiber;
    from a callback it raises [Effect.Unhandled].

    When the wake would be the very next event — the ready queue is
    empty and every queued event is due strictly after the target —
    the fiber does not park: the call consumes the sequence number its
    wake event would have taken, sets the clock and returns. The
    global (time, seq) order, and so every simulated result, is the
    same as if it had parked. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] parks the calling fiber. [register] receives
    a [wake] function; calling [wake] (at most once) schedules the
    fiber to resume at the then-current simulated time. *)

val yield : t -> unit
(** Re-schedule the calling fiber at the current time, letting other
    ready fibers and callbacks run first. *)

val run : t -> unit
(** Drain the event queue. Returns when no event remains (all fibers
    finished or are parked forever). Re-raises the first exception
    that escaped a fiber or callback. *)

val pending : t -> int
(** Number of queued events, those waiting in lanes included. *)
