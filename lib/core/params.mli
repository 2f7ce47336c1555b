(** Calibration constants for the whole reproduction.

    Every constant is annotated with its provenance: either a number
    stated in the paper, a value derived from a paper figure/table, or
    a plausible microarchitectural cost chosen so the end-to-end
    results match the paper's shape. EXPERIMENTS.md records how close
    the calibrated system lands. *)

(** {1 CPU} *)

val cycles : int -> Sim.Time.t
(** Convert CPU cycles to simulated time at the testbed's 2.3 GHz
    (Xeon E5-2670 v3, paper §6, Testbed). *)

val mem_access_ns : int
(** Cost of one cache/DRAM access on the application fast path. *)

(** {1 DiLOS fault-handler software costs (§4.2)} *)

val dilos_pte_check_ns : int
(** Read the unified page table entry and dispatch on the tag — the
    only data structure touched before the RDMA request. *)

val dilos_page_alloc_ns : int
(** Pop a free page from the page manager's free list. *)

val dilos_map_ns : int
(** Install the fetched page's PTE. *)

val dilos_fetch_wait_poll_ns : int
(** Re-check cost while spinning on a [Fetching] PTE (other core's
    fetch in flight). *)

val ddc_malloc_ns : int
val ddc_free_ns : int
(** [ddc_malloc] / [ddc_free] through the size-class allocator
    ([Ddc_alloc], shared by DiLOS and Fastswap's heap): a free-list
    pop or push plus size-class lookup — plausible userspace-allocator
    fast-path costs, not stated in the paper. *)

(** {1 Fastswap / Linux swap-path software costs (§3.1, Fig. 1)}

    Derived from Figure 1: with a 4 KiB fetch at ~2.8 us being 46% of
    the average fault, the total is ~6.1 us; the hardware exception is
    0.57 us (9%); reclamation is 29% (~1.8 us); the remaining ~16% is
    swap-cache management, page allocation and other kernel code. *)

val fastswap_swapcache_ns : int
(** Swap-cache lookup/insertion + swap-slot bookkeeping on a major
    fault. *)

val fastswap_page_alloc_ns : int
(** Kernel page allocation (alloc_pages + cgroup charge). *)

val fastswap_other_ns : int
(** Remaining kernel code on the major-fault path (rmap, LRU,
    statistics). *)

val fastswap_reclaim_direct_ns : int
(** Direct-reclaim work left in the fault path even with Fastswap's
    offloaded reclaim (Fig. 1: ~29% of the average fault). *)

val fastswap_reclaim_offload_fraction : float
(** Fraction of reclaims fully absorbed by the dedicated reclaim
    kernel thread (the paper notes "not all reclamation work is
    offloaded"). *)

val fastswap_minor_fault_ns : int
(** Full cost of a minor fault serviced from the swap cache:
    exception + swap-cache lookup + map + LRU/cgroup accounting.
    Calibrated so 20 GB sequential read lands at ~0.98 GB/s with
    87.5% minor faults (Tables 1 and 2). *)

val fastswap_dirty_write_ns : int
(** First store to a swap-backed page after (re)mapping: swap-slot
    release, reuse_swap_page / write-protect handling, rmap update.
    Calibrated so sequential write lands at ~half of sequential read
    (Table 2: 0.49 vs 0.98 GB/s). *)

val fastswap_offload_evict_gap_ns : int
(** Pause of Fastswap's dedicated reclaim thread between two
    evictions (its own per-page bookkeeping and the scheduler between
    swap-outs) — a plausible kernel-thread cost, not stated in the
    paper. *)

(** {1 Prefetching} *)

val readahead_min_window : int
val readahead_max_window : int
(** Linux VMA readahead window bounds, in pages (8 = the kernel
    default cluster). *)

val trend_history : int
(** Leap major-trend detection history length, in faults. *)

val hit_tracker_capacity : int
(** How many recently prefetched PTEs the hit tracker scans. *)

val prefetch_low_frames : int
(** Prefetch sheds when fewer than this many frames are free. *)

(** {1 Page manager (§4.4)} *)

val cleaner_period : Sim.Time.t
(** How often the background cleaner scans for dirty pages. *)

val cleaner_batch : int
(** Max dirty pages written back per scan. *)

val free_low_watermark : float
val free_high_watermark : float
(** Eager eviction keeps free frames between these fractions of the
    local pool. *)

val evict_page_cost_ns : int
(** Software cost to unmap + free one page during eviction. *)

val cleaner_page_write_ns : int
(** Cleaner time per page it wrote back in a scan (write-protect and
    post the WRITE), paid after the batch — a plausible
    microarchitectural cost, not stated in the paper. *)

(** {1 Fault handling (lib/faults campaigns)} *)

val fault_refetch_delay_ns : int
(** Pause before a kernel re-posts a demand fetch whose RDMA work
    request failed permanently (exhausted the QP retry budget). *)

val fault_refetch_max : int
(** Consecutive permanent failures of the same demand fetch after
    which the kernel gives up and raises [Page_lost] — the page's
    bytes are unreachable (e.g. every replica of the backing shard is
    dead), so blocking forever would hide real data loss. *)

(** {1 Compatibility / baselines} *)

val tcp_emulation_delay : Sim.Time.t
(** 14,000 cycles added after each RDMA completion to emulate TCP
    (paper §6.2 footnote 2). *)

val aifm_deref_check_ns : int
(** AIFM's extra instructions on every dereference to test whether the
    object is local (paper §6.2: "AIFM needs to execute extra
    instructions to check whether accessing objects are in local or
    remote memory"). *)

val aifm_object_fault_sw_ns : int
(** AIFM user-level miss-path software cost (no kernel crossing). *)

val aifm_alloc_ns : int
val aifm_free_ns : int
(** AIFM object allocation (remote-address bump + object-table insert)
    and free (table removal) — plausible runtime costs, not stated in
    the paper. *)

val aifm_chunk_materialize_ns : int
(** A whole-chunk overwrite of a remote chunk: allocate the local
    chunk without fetching it (AIFM's dirty-allocate path) —
    plausible, not stated in the paper. *)

val aifm_evacuate_gap_ns : int
(** Pause of AIFM's evacuator between two chunk evacuations —
    plausible, not stated in the paper. *)

val guided_max_vector : int
(** Guided paging caps RDMA vectors at three segments (§6.3). *)
