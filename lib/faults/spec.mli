(** Fault-scenario specification for the RDMA data path.

    A spec is pure data: which wire-level misbehaviors to inject (and
    how often), plus the QP-side recovery policy (retransmission
    timeout, bounded exponential backoff, retry budget). A spec plus a
    seed makes a {!Plan}; the same (spec, seed) pair replays the exact
    same campaign.

    The paper assumes a healthy RoCE fabric throughout (§4.5, §5);
    every knob here is deliberately outside its model. *)

type t = {
  error_rate : float;  (** probability a completion returns in error *)
  duplicate_rate : float;
      (** probability of a duplicated CQE (dedup'd by the QP, counted) *)
  nack_rate : float;  (** probability of a NACK/retransmission delay *)
  nack_delay_ns : int;  (** extra latency a NACK'd attempt pays *)
  timeout_ns : int;  (** per-attempt response timeout at the QP *)
  max_retries : int;  (** attempts before a failure surfaces to the caller *)
  backoff_ns : int;  (** base of the exponential retry backoff *)
  backoff_max_ns : int;  (** backoff ceiling *)
  blackouts : (int * int) list;
      (** one-shot memory-node stall windows, (start_ns, len_ns) *)
  blackout_period_ns : int;  (** periodic stall period; 0 disables *)
  blackout_len_ns : int;  (** periodic stall length *)
  kills : (int * int) list;
      (** scripted shard deaths, (shard_id, at_ns); acted on by the
          memnode replica group, not the wire *)
  recovers : (int * int) list;  (** scripted shard rebirths, (shard_id, at_ns) *)
}

val zero : t
(** No injection; recovery knobs at their defaults. *)

val is_zero : t -> bool
(** No {e wire} fault will ever be injected (all rates zero, no
    blackouts). Deliberately ignores {!field-kills}/{!field-recovers}:
    those act on replica routing inside the memory node, so a
    kill-only spec leaves the QP's attempts free of wire draws and
    timeout timers. *)

val has_drill : t -> bool
(** At least one scripted [kill-shard]/[recover-shard] event. *)

val max_rate : float
(** Rates are clamped to this ceiling so every attempt keeps a real
    chance of success and campaigns always terminate. *)

val flaky : t
val lossy : t
val blackout : t
val meltdown : t

val parse : string -> (t, string) result
(** Parse a CLI spec: a preset name ([none], [flaky], [lossy],
    [blackout], [meltdown]) and/or comma-separated [key=value] tokens
    — [err], [dup], [nack], [nack-delay], [timeout], [retries],
    [backoff], [backoff-max], [blackout=LEN\@START] (repeatable),
    [blackout-every], [blackout-len], [kill-shard=ID\@T] and
    [recover-shard=ID\@T] (both repeatable). Durations accept [ns]/[us]/[ms]/
    [s] suffixes (bare numbers are ns). Later tokens override earlier
    ones, so ["flaky,err=0.2"] works. Rates are clamped to
    {!max_rate}. *)

val pp : Format.formatter -> t -> unit
