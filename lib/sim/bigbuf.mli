(** Off-heap byte slabs for page payloads.

    A [Bigbuf.t] is a flat [char] Bigarray used as backing store for
    the frame pool (one slab) and the memnode page store's arena
    segments, addressed by byte offset, instead of one GC-tracked
    [bytes] per page. {!create} is the one allocator for page bytes
    ([check.sh] rejects any other Bigarray allocation under [lib/]).
    A slab of 2 MiB or more is its own anonymous mapping, advised for
    transparent huge pages: the kernel commits and zeroes it as it is
    first touched, 2 MiB at a time where huge pages are available.

    No slab is ever viewed through a Bigarray sub-array ([check.sh]
    rejects one under [lib/]): the mapping is unmapped when its slab
    is collected, and a view would outlive it.

    Bulk operations ({!fill}, {!equal_range}, {!blit},
    {!blit_to_bytes}, {!blit_from_bytes}) are one libc call each
    ([memset], [memcmp], [memmove], [memcpy]) on raw byte offsets,
    and {!used} is one C word scan: they allocate nothing and create
    no Bigarray view. Every range is
    bounds-checked in OCaml before the call; an out-of-range call
    (including a negative length) raises [Invalid_argument] and
    touches neither buffer.

    Scalar accessors are little-endian, mirroring the [Bytes.*_le]
    family they replace; [unsafe_*] variants skip bounds checks for
    hot paths that have already validated the offset. *)

type t =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create n] allocates an [n]-byte slab, zeroed.

    For [n] >= 2 MiB the slab is a fresh anonymous [mmap] starting on
    a 2 MiB boundary, advised with [MADV_HUGEPAGE] (the advice's
    result is ignored, so it works the same where huge pages are off)
    and never memset: it costs address space until touched, then one
    huge page per whole 2 MiB region touched and base pages for a
    partial last region. Its finaliser unmaps it, and it is charged to
    the GC with its byte size, as a heap bigarray is. Smaller slabs
    come from the C heap and are zeroed with [memset].

    Raises [Out_of_memory] when the host refuses the mapping,
    [Invalid_argument] when [n] is negative. *)

val length : t -> int

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16_le : t -> int -> int
val set_u16_le : t -> int -> int -> unit

val get_u32_le : t -> int -> int
(** Unsigned: result in [0, 2^32). *)

val set_u32_le : t -> int -> int -> unit
val get_u64_le : t -> int -> int64
val set_u64_le : t -> int -> int64 -> unit
val unsafe_get_u8 : t -> int -> int
val unsafe_set_u8 : t -> int -> int -> unit
val unsafe_get_u16_le : t -> int -> int
val unsafe_set_u16_le : t -> int -> int -> unit
val unsafe_get_u32_le : t -> int -> int
val unsafe_set_u32_le : t -> int -> int -> unit
val unsafe_get_u64_le : t -> int -> int64
val unsafe_set_u64_le : t -> int -> int64 -> unit

val fill : t -> off:int -> len:int -> char -> unit
(** [memset] of [len] bytes at [off]. *)

val equal_range : t -> a_off:int -> t -> b_off:int -> len:int -> bool
(** [equal_range a ~a_off b ~b_off ~len]: byte equality of the two
    ranges ([memcmp]). *)

val used : t -> off:int -> len:int -> int
(** [used t ~off ~len] is the used length of the range: the offset,
    relative to [off], of its last nonzero byte, plus one; [0] when
    the range is all zeros. Scans back 64 bytes (eight words) per
    step, then a word at a time. Allocates nothing. *)

val blit : t -> src_off:int -> t -> dst_off:int -> len:int -> unit
(** [blit src ~src_off dst ~dst_off ~len] copies slab-to-slab with one
    [memmove]: the ranges may overlap, including within one slab. *)

val blit_to_bytes : t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** One [memcpy] from the slab into heap bytes. *)

val blit_from_bytes : Bytes.t -> src_off:int -> t -> dst_off:int -> len:int -> unit
(** One [memcpy] from heap bytes into the slab. *)

val to_bytes : t -> off:int -> len:int -> Bytes.t
(** Copy a range out into a fresh [Bytes.t]. *)

val of_string : string -> t
