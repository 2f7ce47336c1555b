(** Page manager (§4.4): allocator, cleaner, reclaimer.

    The fault handler never reclaims: it pops a free frame from the
    allocator, and two background fibers keep that pool stocked —

    - the {e cleaner} periodically writes back the oldest dirty pages
      on the LRU clock (clearing dirty bits), so that eviction of cold
      pages is usually RDMA-free. It pops them from a dirty index
      ordered like the clock, so a pass touches only the candidates it
      examines (O(log n) each) instead of walking the whole clock;
    - the {e reclaimer} runs the clock algorithm eagerly whenever free
      frames fall under the low watermark, evicting
      least-recently-used clean pages until the high watermark.

    Both write pages back through {!Writeback}: [begin_] at post, and
    from the WRITE's completion [written] and (reclaimer only)
    [finish], or [failed]; a page kept or failed goes back on the
    clock. Clean pages drop through [Writeback.unmap], with no WRITE.

    With a reclaim guide installed (guided paging), evictions move
    only the live byte ranges of each page using vectored RDMA and
    leave an [Action] PTE whose payload indexes the logged vector, so
    the eventual re-fetch is equally frugal. *)

type t

val create :
  eng:Sim.Engine.t ->
  stats:Sim.Stats.t ->
  pt:Vmem.Page_table.t ->
  frames:Vmem.Frame.t ->
  evict_qp:Rdma.Qp.t ->
  ?reclaim_guide:Guide.reclaim_guide ->
  unit ->
  t

val writeback : t -> Writeback.t
(** The write-back record: set its cores, decode its [Action] PTEs. *)

val start : t -> unit
(** Spawn the cleaner and reclaimer fibers. *)

val stop : t -> unit
(** Ask background fibers to exit at their next wake-up (so
    [Engine.run] can drain). *)

val alloc_frame : t -> int
(** Pop a free frame for the calling fiber, blocking (and nudging the
    reclaimer) when the pool is empty. The blocked time is the
    "reclaim in critical path" the design tries to avoid; it is
    accounted in the [reclaim_stall_ns] counter. *)

val try_alloc_frame : t -> int option
(** Non-blocking variant used by the prefetcher, which sheds load
    instead of stalling. *)

val release_frame : t -> int -> unit
(** Return an allocated-but-never-mapped frame to the pool and wake
    fibers blocked in {!alloc_frame} (used when an aborted prefetch
    unwinds). *)

val note_mapped : t -> int -> unit
(** Tell the LRU clock a page just became [Local] at [vpn]. *)

val note_dirtied : t -> int -> unit
(** [note_dirtied t vpn] must follow every store-path transition that
    sets the dirty bit of the resident ([Local]) page [vpn]: it makes
    the page a cleaner candidate. Redundant calls (the page was
    already dirty) are cheap no-ops, and pages not on the LRU clock
    (non-DDC mappings) are ignored. Missing a call leaves the page
    dirty until eviction writes it back. *)

val clock_order : t -> int list
(** VPNs on the LRU clock, head (next eviction candidate) first.
    O(clock length); for tests and diagnostics. *)

val writeback_in_flight : t -> int -> bool
(** A write-back of [vpn] has been posted and has not completed. *)

val free_frames : t -> int
val quiesce : t -> unit
(** Block until no write-back is in flight (used by tests and
    checkpoints). *)
