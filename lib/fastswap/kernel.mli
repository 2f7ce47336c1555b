(** Fastswap baseline: the kernel paging path DiLOS is measured
    against (Amaro et al., EuroSys '20).

    Structure follows Linux's swap subsystem with Fastswap's
    improvements: frontswap-style RDMA swap-in/out, cluster readahead
    into the {e swap cache} (so most hits are minor faults that still
    pay a kernel crossing), and reclamation that is partially offloaded
    to a dedicated kernel thread — the non-offloaded remainder runs as
    direct reclaim inside the fault handler (paper Fig. 1). All paging
    traffic for a core shares one RDMA queue, so readahead and
    write-back block demand fetches (the head-of-line blocking §4.5
    avoids). A swap-out that fails for good (every replica of the
    page's shard dead) leaves the page dirty and resident; a demand
    fetch that keeps failing raises {!Dilos.Cpu.Page_lost}. *)

type config = {
  local_mem_bytes : int;
  cores : int;
  readahead : bool;  (** cluster readahead on/off (on = Linux default) *)
}

val default_config : config

type t

val boot : eng:Sim.Engine.t -> server:Memnode.Server.t -> config -> t
val shutdown : t -> unit

val eng : t -> Sim.Engine.t
val stats : t -> Sim.Stats.t
val fabric : t -> Rdma.Fabric.t
val now : t -> Sim.Time.t

val mmap : t -> len:int -> ?name:string -> unit -> int64
(** All Fastswap mappings are swap-backed (the cgroup limit decides
    what stays local). *)

val munmap : t -> int64 -> unit
val malloc : t -> core:int -> int -> int64
val free : t -> core:int -> int64 -> unit

val cpu : t -> core:int -> Dilos.Cpu.t
(** The core's access path: {!Dilos.Cpu}, the hit and fault path
    shared with DiLOS, with this kernel's swap path as its fault
    handler (raising {!Dilos.Cpu.Segmentation_fault} and
    {!Dilos.Cpu.Page_lost}). Raises [Invalid_argument] on a bad
    core. *)

include Dilos.Cpu.ACCESSORS with type k := t

val free_frames : t -> int
val swap_cache_size : t -> int
val quiesce : t -> unit
val pte : t -> int64 -> Vmem.Pte.t
