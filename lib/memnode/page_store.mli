(** Authoritative byte store on the memory node.

    Sparse: it holds only the 4 KiB blocks written to it, in a block
    directory over a small arena, so its memory follows what was
    written rather than [~size]. Each written block is held at its
    used length (the offset of its last nonzero byte, plus one),
    rounded up to the smallest of four slot classes that covers it:
    64 B, 256 B, 1 KiB or 4 KiB. The bytes past a slot read as zeros.
    Reads of never-written memory observe zeros (fresh DRAM handed out
    by the memory node server). Serves arbitrary byte ranges,
    including ranges crossing block boundaries, so it can back both
    full-page transfers and the sub-page / vectored operations used by
    guides. A write of a whole block re-classes it (it may shrink); a
    partial write grows the block's slot when its nonzero bytes reach
    past it, and never shrinks it.

    A replica group keeps one store for all its shards (see
    {!Replica_group}): each block is one page's bytes, held once
    however many replicas hold the page. {!drop} forgets a block whose
    last holder died; its slot is zeroed and reused by the next block
    of its class, so the store never grows past the pages it holds at
    once.

    Residency does not depend on the bytes: a block written with
    zeros only is resident (in a 64 B slot) until dropped, exactly as
    a dense one is. *)

type t

val create : size:int64 -> t
(** [create ~size] serves addresses \[0, size), reserving nothing. *)

val read : t -> addr:int64 -> dst:Sim.Bigbuf.t -> off:int -> len:int -> unit
val write : t -> addr:int64 -> src:Sim.Bigbuf.t -> off:int -> len:int -> unit

val resident_blocks : t -> int
(** Number of 4 KiB blocks resident: written and not dropped since. *)

val held_bytes : t -> int
(** Bytes of the arena slots that hold resident blocks: 64, 256,
    1,024 or 4,096 per block, by its class. *)

val mem : t -> int -> bool
(** [mem t blk] is true iff block [blk] is resident. *)

val drop : t -> int -> unit
(** [drop t blk] forgets block [blk]: it reads as zeros again and no
    longer counts as resident, and its slot goes to the next block
    that needs one of its class. A no-op on a block that is not resident. *)

val iter_touched : t -> (int -> unit) -> unit
(** Iterate the indices of resident 4 KiB blocks in ascending order
    (deterministic, for resync enumeration). *)

(** {2 Staged WRITE payloads}

    An RDMA WRITE's payload is captured into the store when the WR is
    posted, and lands when it completes. A staged payload covers at
    most one 4 KiB block; its handle is the slot that holds it, of the
    class covering its used length, and bytes past the slot read as
    zeros. Every handle is consumed once: by {!adopt}, {!land_staged} or
    {!unstage}. *)

val stage : t -> src:Sim.Bigbuf.t -> off:int -> len:int -> int
(** [stage t ~src ~off ~len] copies the used bytes of [src]'s
    \[off, off+len) into a slot (one scan, one copy) and returns its
    handle. [len] must be in \[0, 4096\], otherwise
    [Invalid_argument]. *)

val staged : t -> int
(** Handles given out by {!stage} and not yet consumed. Their slots
    count in neither {!resident_blocks} nor {!held_bytes}. *)

val unstage : t -> int -> unit
(** Discard a staged payload: its slot is freed. *)

val adopt : t -> int -> int -> unit
(** [adopt t blk h] makes the staged whole-block payload [h] block
    [blk]'s bytes: the leaf points at [h]'s slot, and the slot [blk]
    held before is released. Copies nothing. *)

val write_staged : t -> addr:int64 -> int -> soff:int -> len:int -> unit
(** [write_staged t ~addr h ~soff ~len] writes the staged payload's
    bytes \[soff, soff+len) at [addr], as {!write} would; the span must
    stay inside one block. [h] stays staged. *)

val equal : t -> int -> inb:int -> int -> soff:int -> len:int -> bool
(** [equal t blk ~inb h ~soff ~len] is true iff the staged payload
    [h]'s bytes \[soff, soff+len) equal block [blk]'s bytes
    \[inb, inb+len) (zeros if the block is not resident). Compares in
    place, allocating nothing. The span must stay inside the block and
    the store, otherwise [Invalid_argument]. *)

val land_staged : t -> addr:int64 -> int -> len:int -> unit
(** [land_staged t ~addr h ~len] lands the [len]-byte staged payload [h] at
    [addr] and consumes it: a whole aligned block is adopted, anything
    else is written and unstaged. *)

val target : t -> Rdma.Qp.target
(** The one-sided access interface handed to the RNIC. *)
