(** Simple Dynamic Strings (Redis's string representation).

    Layout in disaggregated memory:
    {[ [len:u32][alloc:u32][bytes...][NUL] ]}
    The header-then-data shape is what the paper's app-aware GET
    prefetcher exploits: a subpage fetch of the first 8 bytes yields
    the length, which tells the prefetcher exactly how many pages the
    value spans (§6.3). *)

val header_size : int
(** 8 bytes. *)

val create : Memif.t -> bytes -> len:int -> int64
(** [create mem src ~len] allocates an SDS holding the first [len]
    bytes of [src]; returns its base address. *)

val len : Memif.t -> int64 -> int
val data_addr : int64 -> int64

val get : Memif.t -> int64 -> bytes ref -> int
(** [get mem base buf] reads the whole string (header + payload
    traffic) into the caller-owned [!buf] and returns its length [n].
    When the payload does not fit, [!buf] is first replaced by a
    buffer of exactly [n] bytes; bytes of [!buf] past [n] keep stale
    contents. The caller reuses one [buf] across reads, as Redis
    reuses a client's output buffer. *)

val total_size : int -> int
(** Allocation footprint of a payload of the given length. *)

val free : Memif.t -> int64 -> unit
