(** Authoritative byte store on the memory node.

    Sparse: it holds only the 4 KiB blocks written to it, in a block
    directory over a small arena, so its memory follows what was
    written rather than [~size]. Reads of never-written memory observe
    zeros (fresh DRAM handed out by the memory node server). Serves
    arbitrary byte ranges, including ranges crossing block boundaries,
    so it can back both full-page transfers and the sub-page /
    vectored operations used by guides. *)

type t

val create : size:int64 -> t
(** [create ~size] serves addresses \[0, size), reserving nothing. *)

val read : t -> addr:int64 -> dst:Sim.Bigbuf.t -> off:int -> len:int -> unit
val write : t -> addr:int64 -> src:Sim.Bigbuf.t -> off:int -> len:int -> unit

val resident_blocks : t -> int
(** Number of 4 KiB blocks written so far. *)

val reset : t -> unit
(** Forget everything — the store reads as fresh DRAM again. Models a
    shard process dying with its memory (see [Replica_group]). *)

val iter_touched : t -> (int -> unit) -> unit
(** Iterate the indices of written 4 KiB blocks in ascending order
    (deterministic, for resync enumeration). *)

val target : t -> Rdma.Qp.target
(** The one-sided access interface handed to the RNIC. *)
