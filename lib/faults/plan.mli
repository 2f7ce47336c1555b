(** A deterministic fault campaign: a {!Spec} bound to a seeded
    {!Sim.Rng}.

    One plan is shared by every QP of a fabric — wire outcomes are
    drawn in simulated-event order, which the engine makes
    deterministic, so the same (spec, seed) pair replays bit-identical
    counters and traces. A zero-rate plan is recognised up front
    ({!passthrough}): the QP then draws no wire outcome and arms no
    timeout timer, guaranteeing no happy-path perturbation. *)

type t

val make : seed:int -> Spec.t -> t
val spec : t -> Spec.t

val passthrough : t -> bool
(** The plan can never inject a {e wire} fault, so the QP never
    draws from it nor arms a timeout timer. Scripted shard kills
    ({!kills}) do not count — they are served by the memnode replica
    group, off the wire path. *)

val kills : t -> (int * Sim.Time.t) list
(** Scripted shard deaths, sorted by (instant, shard id) so the
    schedule is independent of spec-token order. *)

val recovers : t -> (int * Sim.Time.t) list
(** Scripted shard rebirths, same ordering contract as {!kills}. *)

type wire = {
  mutable w_completion : int;
      (** ns; possibly NACK-delayed / stall-deferred *)
  mutable w_error : bool;  (** completion arrives, but in error *)
  mutable w_duplicate : bool;  (** a duplicate CQE also arrives (accounting only) *)
  mutable w_retransmitted : bool;  (** a NACK delayed this attempt *)
}
(** One attempt's wire outcome. A QP keeps one cell per pooled work
    request and {!wire} overwrites it, so an attempt allocates no
    outcome. *)

val wire_cell : unit -> wire
(** A fresh cell, holding no outcome yet. *)

val wire : t -> completion:Sim.Time.t -> wire -> unit
(** Draw the wire outcome of one service attempt whose fault-free
    completion would be at [completion] into the cell. Consumes
    exactly three RNG draws regardless of outcome. *)

val backoff : t -> attempt:int -> Sim.Time.t
(** Bounded exponential backoff before retry number [attempt] (+
    deterministic jitter drawn from the plan RNG). *)

val timeout : t -> Sim.Time.t
(** Per-attempt retransmission timeout. *)

val max_retries : t -> int

val stall_end_at : t -> Sim.Time.t -> Sim.Time.t option
(** End of the memory-node stall window covering the given instant, if
    one is configured there (exposed for tests). *)
