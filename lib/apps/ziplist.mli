(** Ziplist: Redis's compact contiguous list encoding.

    One allocation holding:
    {[ [zlbytes:u32][count:u16][cap:u32-pad..]{ [elen:u16][bytes] }* ]}
    Entries are appended in place up to the creation capacity (Redis
    caps ziplists similarly before chaining them in a quicklist). *)

type t = int64

val header_size : int

val create : Memif.t -> capacity:int -> t
(** Empty ziplist able to hold [capacity] payload bytes (plus
    per-entry overhead). *)

val length : Memif.t -> t -> int
val try_append : Memif.t -> t -> bytes -> bool
(** [false] when the entry does not fit (caller starts a new node). *)

val iter : Memif.t -> t -> (bytes -> unit) -> unit
val nth : Memif.t -> t -> int -> bytes option
val free : Memif.t -> t -> unit
