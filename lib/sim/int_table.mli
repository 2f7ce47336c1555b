(** Int-keyed hash table for the sparse paging bookkeeping: DiLOS's
    vector log, Fastswap's swap cache and the failed write-back counts.
    Dense per-page state lives in the page table's kernel words
    ([Vmem.Page_table.word]) instead.

    Open addressing with linear probing over two flat arrays (keys and
    values) and backward-shift deletion, so there are no tombstones and
    no per-entry allocation: an insert or remove allocates only when
    the table doubles. Equality and hashing are on the [int] itself —
    no [compare_val], no [caml_hash].

    Keys must not be [min_int] (it marks an empty slot); every
    operation raises [Invalid_argument] on it. A removed value stays
    reachable until its slot is reused. *)

type 'a t

val create : int -> 'a t
(** [create n] sizes the table for [n] entries without growing. *)

val length : 'a t -> int
val mem : 'a t -> int -> bool

val find_opt : 'a t -> int -> 'a option

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding. *)

val remove : 'a t -> int -> unit
(** No-op when the key is absent. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Visit every binding in slot order, which depends on the insertion
    history: sort the result before anything order-sensitive uses it. *)
