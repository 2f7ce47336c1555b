(** Fixed-memory latency histogram (HDR-style).

    Values are non-negative integers (we use nanoseconds). Buckets are
    exponential with 16 sub-buckets per octave, giving a relative
    quantile error of at most ~6%; min, max, mean and count are
    exact. *)

type t

val create : unit -> t
val add : t -> int -> unit

val index_of : int -> int
(** The bucket a value [>= 0] is counted in: the value itself below
    16, then 16 sub-buckets per octave; constant time. *)

val count : t -> int
val min_value : t -> int
val max_value : t -> int
val mean : t -> float
(** [float (sum t) /. float (count t)]; 0 when empty. *)

val sum : t -> int
(** Exact integer sum of all recorded samples. The Observatory profile
    reconciles folded-stack totals against attribution histograms with
    [=], so this must not go through float rounding. *)

val quantile : t -> float -> int
(** [quantile t q] with [q] in \[0, 1\]; e.g. [quantile t 0.99] is the
    p99. Returns 0 on an empty histogram. *)

val merge_into : dst:t -> t -> unit
val reset : t -> unit
