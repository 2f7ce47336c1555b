(** Local DRAM: a fixed pool of 4 KiB physical frames.

    The pool size is the computing node's local cache budget (the
    "12.5% / 25% / 50% / 100% local memory" knob of the evaluation).
    Payloads live in one flat off-heap slab ({!Sim.Bigbuf}) addressed
    by byte offset — frame [f] occupies slab bytes
    [[f * page_size, (f+1) * page_size)] — so the MMU and the RDMA
    engine copy pages with offset arithmetic instead of per-page heap
    buffers. *)

type t

val create : frames:int -> t
(** @raise Failure naming the size and the parameter to lower when the
    host refuses the slab. *)

val total : t -> int
val free_count : t -> int

val alloc : t -> int option
(** Returns a frame number, or [None] when the pool is exhausted.
    The payload is NOT zeroed: the fetch path overwrites it, and the
    zero-fill-fault path calls {!fill_page} explicitly. *)

val alloc_exn : t -> int

val free : t -> int -> unit
(** @raise Invalid_argument on double free or bad frame number. *)

val slab : t -> Sim.Bigbuf.t
(** The whole backing slab ([total * page_size] bytes). Hot paths
    combine this with {!offset} instead of materializing views. *)

val offset : t -> int -> int
(** Byte offset of an allocated frame's payload within {!slab}.
    @raise Invalid_argument if the frame is not allocated. *)

val fill_page : t -> int -> char -> unit

val blit_to : t -> int -> off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** Copy out of an allocated frame's payload into heap bytes. *)
