(** The DiLOS kernel façade: boots the LibOS on a computing node,
    connects it to a memory node, and exposes the POSIX-flavoured
    memory interface applications program against.

    The page fault handler lives here (§4.2): on a fault it checks one
    data structure — the unified page table — and dispatches on the
    DiLOS tag: [Remote] pages are marked [Fetching] and fetched with a
    one-sided READ; [Fetching] entries make the core wait for the
    in-flight fetch (the DiLOS analogue of a minor fault); [Action]
    entries decode a guided-paging vector; unmapped DDC addresses
    zero-fill. While the 4 KiB fetch is in flight the handler runs the
    hit tracker and issues prefetches, hiding their cost inside the
    RDMA window (§4.3). *)

type prefetch_kind = No_prefetch | Readahead | Trend_based

type config = {
  local_mem_bytes : int;  (** local DRAM budget for DDC pages *)
  cores : int;
  prefetch : prefetch_kind;
  guided_paging : bool;
      (** wire the DDC allocator's bitmaps as the reclaim guide *)
  tcp_emulation : bool;
      (** add {!Params.tcp_emulation_delay} after every completion *)
}

val default_config : config
(** 64 MiB local memory, 1 core, readahead, no guide, RDMA. *)

type t

(** [boot ~eng ~server cfg] starts the LibOS. [nic_config] overrides
    the fabric's latency model — used by the NVMe-far-memory ablation
    (§5.1: "DiLOS' design would be valid for NVMe drives"). *)
val boot :
  eng:Sim.Engine.t ->
  server:Memnode.Server.t ->
  ?nic_config:Rdma.Nic.config ->
  config ->
  t
val shutdown : t -> unit
(** Stop background fibers so the engine can drain. *)

val eng : t -> Sim.Engine.t
val stats : t -> Sim.Stats.t
val fabric : t -> Rdma.Fabric.t
val loader : t -> Loader.t
val config : t -> config
val now : t -> Sim.Time.t

(** {1 Memory management} *)

val mmap : t -> len:int -> ddc:bool -> ?name:string -> unit -> int64
val munmap : t -> int64 -> unit
val ddc_malloc : t -> core:int -> int -> int64
val ddc_free : t -> core:int -> int64 -> unit
val malloc_usable_size : t -> int64 -> int

(** {1 Data path (call from a fiber)}

    Every access runs on {!Cpu}, the hit and fault path shared with
    Fastswap; this kernel supplies its fault handler (above), which
    raises {!Cpu.Segmentation_fault} and {!Cpu.Page_lost}. *)

val cpu : t -> core:int -> Cpu.t
(** The core's access path. Raises [Invalid_argument] on a bad core. *)

include Cpu.ACCESSORS with type k := t

(** {1 Guides} *)

val set_prefetch_guide : t -> Guide.prefetch_guide option -> unit
val prefetch_ops : t -> core:int -> Guide.prefetch_ops
(** The capability record handed to prefetch guides (exposed for
    guides that want to issue work outside fault context, and for
    tests). *)

(** {1 Introspection} *)

val page_tag : t -> int64 -> Vmem.Pte.tag
val free_frames : t -> int
val allocator : t -> Ddc_alloc.t
val quiesce : t -> unit
