(** Quicklist: Redis's list type — a doubly-linked list of ziplists
    ("a linked list of ziplists", §6.3 / Fig. 11).

    Node layout (fixed 32 bytes, parsed by the app-aware guide from a
    subpage fetch):
    {[
      offset 0:  next node address (u64, 0 = none)
      offset 8:  prev node address (u64, 0 = none)
      offset 16: ziplist address   (u64)
      offset 24: entry count       (u32)
      offset 28: ziplist byte size (u32)
    ]}
    Header: [head:u64][tail:u64][total count:u32][node count:u32]. *)

type t = int64

val node_size : int
val node_next_off : int
val node_zl_off : int
val node_zlbytes_off : int

val create : Memif.t -> t
val length : Memif.t -> t -> int
val node_count : Memif.t -> t -> int
val head_node : Memif.t -> t -> int64
(** 0L when empty. *)

val push_tail : Memif.t -> t -> bytes -> unit
(** Append an element; opens a new node when the tail ziplist is
    full. *)

val range : Memif.t -> t -> count:int -> ?on_node:(int64 -> unit) -> unit -> bytes list
(** First [count] elements in order, traversing nodes from the head.
    [on_node] fires as each node is reached (application hook point
    for the prefetch guide). *)

val free : Memif.t -> t -> unit
