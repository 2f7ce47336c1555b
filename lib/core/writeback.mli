(** Writing one dirty page back: the protocol both paging kernels
    share. DiLOS calls it from a WRITE's asynchronous completion,
    Fastswap around a synchronous store; who reclaims and when stays
    in each kernel. The record owns the [evictions] and [writebacks]
    counters and, for guided paging, the reclaim guide and the vector
    log that [Action] PTEs index. No step yields. *)

type t

val create :
  stats:Sim.Stats.t -> pt:Vmem.Page_table.t -> frames:Vmem.Frame.t ->
  frames_avail:Sim.Condvar.t -> ?reclaim_guide:Guide.reclaim_guide -> unit -> t
(** [frames_avail] is broadcast whenever a frame is freed. *)

val set_cpus : t -> Cpu.t array -> unit
val invalidate : t -> int -> unit
(** TLB shoot-down of a VPN on the cores of {!set_cpus}. *)

val guide_vector : t -> int -> (int * int) list option
(** The guide's live [(offset, len)] ranges of a page, clamped: [None]
    to move the whole page, [Some []] when nothing on it is live. *)

val segs : base:int64 -> foff:int -> (int * int) list option -> Rdma.Qp.seg list
(** The transfer between the page at remote [base] and byte [foff] of
    the local buffer: the vector's ranges if [Some], else the page. *)

val begin_ : t -> int -> Vmem.Pte.t -> (int * int) list option -> Rdma.Qp.seg list
(** [begin_ t vpn pte vec]. Pre: [vpn] is [Local] and dirty with entry
    [pte]; [vec] is its {!guide_vector}, not [Some []]. Clears the
    dirty bit and shoots [vpn] down, so a store during the WRITE
    re-dirties it, and returns the WRITE's segments in the frame slab.
    Until it calls {!written} and maybe {!finish}, or {!failed}, the
    caller keeps [vpn] from being evicted. *)

val written : t -> unit
(** The WRITE succeeded: count it in [writebacks]. *)

type outcome = Evicted | Kept | Gone

val finish : t -> int -> (int * int) list option -> outcome
(** [finish t vpn vec], after {!written} or for a clean page: [Evicted]
    by {!unmap} if [vpn] is still [Local] and clean, [Kept] if it was
    re-dirtied, [Gone] if no longer [Local]. The re-check and the
    unmap are one [[@lint.atomic]] region; a caller's bookkeeping on
    [Evicted] belongs in a region around the call. *)

val failed : t -> int -> bool
(** The WRITE reached nothing: re-dirty [vpn] if still [Local]
    (returned), then {!Major_fault.writeback_failed} (which may raise
    {!Cpu.Page_lost}). *)

val unmap : t -> int -> frame:int -> (int * int) list option -> unit
(** Drop [Local] page [vpn] on [frame] with no WRITE: its PTE becomes
    [Action] logging [vec] if [Some _], else [Remote]; then shoot it
    down and {!release} the frame. *)

val release : t -> int -> unit
(** Free an evicted page's frame, count the eviction, broadcast. *)

val vector_segments : t -> payload:int -> (int * int) list
(** Decode (and remove) an [Action] payload's logged vector. Raises
    [Invalid_argument] on an unknown payload. *)
