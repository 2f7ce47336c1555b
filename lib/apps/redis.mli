(** In-memory key-value store modelled on Redis (paper §6.2–6.3).

    Values are typed objects (robj): SDS strings for GET/SET,
    quicklists for the list commands. Command implementations fire
    named hooks at the traversal points the app-aware guide needs
    ("redis.get_sds" with the value SDS address, "redis.lrange_node"
    with each quicklist node address) — via the DiLOS loader when
    running on DiLOS, and as no-ops on the baselines, leaving the
    application logic identical everywhere. *)

type t

val create : Harness.ctx -> keyspace_hint:int -> t
val mem : t -> Memif.t

val set : t -> key:bytes -> value:bytes -> len:int -> unit
(** Store the first [len] bytes of [value] under [key], replacing any
    previous value. *)

val get : t -> bytes -> bytes ref -> int option
(** [get t key reply] copies [key]'s string value into the
    caller-owned [reply] buffer (grown when the value does not fit; see
    {!Sds.get}) and returns its length — [None] when [key] is missing
    or not a string. Like Redis's per-client output buffer, one
    [reply] serves every GET of its owner, so a GET allocates nothing
    once the buffer has reached the largest value. *)

val del : t -> bytes -> bool
val rpush : t -> key:bytes -> bytes -> unit
val lrange : t -> key:bytes -> count:int -> bytes list

(** Hook names (documented for guides). *)

val hook_get_sds : string
val hook_lrange_node : string
