(** Authoritative byte store on the memory node.

    One dense off-heap slab ({!Sim.Bigbuf}), lazily committed by the
    host kernel: reads of never-written memory observe zeros (matching
    fresh DRAM handed out by the memory node server) and physical
    memory is consumed only for blocks actually written. Serves
    arbitrary byte ranges, including ranges crossing block boundaries,
    so it can back both full-page transfers and the sub-page /
    vectored operations used by guides. *)

type t

val block_size : int
(** Granularity of the residency diagnostic (4 KiB). *)

val create : size:int64 -> t
(** [create ~size] serves addresses \[0, size).
    @raise Failure naming the size and the parameter to lower when the
    host refuses the slab. *)

val size : t -> int64

val read : t -> addr:int64 -> dst:Sim.Bigbuf.t -> off:int -> len:int -> unit
val write : t -> addr:int64 -> src:Sim.Bigbuf.t -> off:int -> len:int -> unit

val read_bytes : t -> addr:int64 -> dst:Bytes.t -> off:int -> len:int -> unit
(** Heap-bytes variants for test and loader convenience. *)

val write_bytes : t -> addr:int64 -> src:Bytes.t -> off:int -> len:int -> unit

val resident_blocks : t -> int
(** Number of 4 KiB blocks written so far (diagnostic). *)

val reset : t -> unit
(** Forget everything: zero all touched blocks and clear the
    residency bitmap — the store reads as fresh DRAM again. Models a
    shard process dying with its memory (see [Replica_group]). *)

val iter_touched : t -> (int -> unit) -> unit
(** Iterate the indices of touched 4 KiB blocks in ascending order
    (deterministic, for resync enumeration). *)

val target : t -> Rdma.Qp.target
(** The one-sided access interface handed to the RNIC. *)
