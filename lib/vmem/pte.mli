(** Page table entry encoding, including the DiLOS tags.

    Layout follows x86-64: bit 0 = present, bit 1 = write, bit 2 =
    user, bit 5 = accessed, bit 6 = dirty, bits 12.. = frame number
    (when present) or software payload (when not).

    DiLOS (§4.1) distinguishes its four tags by the three least
    significant bits (user, write, present):

    - [Local]    present = 1: the hardware MMU translates normally.
    - [Remote]   present = 0, write = 1, user = 0: page lives on the
                 memory node.
    - [Fetching] present = 0, write = 0, user = 1: an RDMA fetch is in
                 flight; other cores spin-wait on the value changing.
    - [Action]   present = 0, write = 1, user = 1: the fault handler
                 calls an app-aware guide; bits 12.. carry the guide's
                 action payload (e.g. an index into the vector log for
                 guided paging).

    An all-zero entry is unmapped. An entry is an immediate [int] (63
    bits hold the 36-bit frame number and every flag), so storing one
    in a page-table leaf neither allocates nor needs a write barrier. *)

type t = int

type tag = Unmapped | Local | Remote | Fetching | Action

val zero : t
val tag : t -> tag

val make_local : frame:int -> writable:bool -> t
val make_remote : unit -> t
val make_fetching : unit -> t
val make_action : payload:int -> t

val frame : t -> int
(** Frame number of a [Local] entry. *)

val payload : t -> int
(** Software payload of an [Action] entry. *)

val writable : t -> bool
val accessed : t -> bool
val dirty : t -> bool

val set_accessed : t -> t
val set_dirty : t -> t
val clear_accessed : t -> t
val clear_dirty : t -> t

val pp : Format.formatter -> t -> unit
