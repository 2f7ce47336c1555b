(** One simulated core's access path, shared by the paging kernels.

    DiLOS and Fastswap differ only in what a fault does (DiLOS's
    unified page table and fault handler, §4.2; Fastswap's swap path).
    How a core takes a hit or a miss is the same in both, so it lives
    here once:

    - a 64-entry direct-mapped software TLB caching each page's byte
      offset into the frame slab (a hit is two array loads and integer
      arithmetic — no heap objects);
    - the pending-time accumulator: simulated CPU time is charged
      locally and flushed to the engine at faults and whenever it
      reaches 10 µs, so background fibers interleave realistically;
    - the hit protocol: TLB check → charge [mem_access_ns] (which may
      sleep) → re-validate the slot → else the slow path;
    - the slow path: flush → MMU walk → on a fault, sleep
      {!Vmem.Mmu.exception_cost}, run the kernel's [fault] hook and
      walk again → cache the translation (+20 ns) → on a store, run
      the kernel's [dirtied] hook.

    The module knows nothing about either kernel. It calls one only
    through three hooks given to {!create}, and none runs on a TLB
    hit. Each may sleep:

    - [fault c vpn] resolves a fault on [vpn] (its PTE is not [Local])
      or raises {!Segmentation_fault} / {!Page_lost}. It need not map
      the page: the walk is retried until it hits.
    - [dirtied c vpn] runs after a store's slow path has set the PTE
      dirty bit and cached the translation.
    - [first_store c vpn] runs on a store through a read-loaded
      translation, after the PTE dirty bit and the slot's written flag
      are set, before the access is charged.

    Invariant: an accessor uses a cached offset only if the slot still
    maps the VPN after the last charge of that access; otherwise it
    takes the slow path. *)

exception Segmentation_fault of int64

exception Page_lost of int64
(** The demand fetch of this page failed {!Params.fault_refetch_max}
    consecutive times (every replica of its shard is dead): data loss
    surfaces instead of hanging the core. *)

type t

val create :
  eng:Sim.Engine.t ->
  pt:Vmem.Page_table.t ->
  frames:Vmem.Frame.t ->
  fault:(t -> int -> unit) ->
  dirtied:(t -> int -> unit) ->
  first_store:(t -> int -> unit) ->
  int ->
  t
(** [create ~eng ~pt ~frames ~fault ~dirtied ~first_store id]: core
    [id] with an empty TLB, translating through [pt] into [frames]. *)

val id : t -> int
val track : t -> int
(** The trace track of this core's fault timeline (["cpu<id>"]). *)

val now : t -> Sim.Time.t

(** {1 Kernel side} *)

val invalidate : t array -> int -> unit
(** TLB shoot-down of a VPN on every core. Kernels call it whenever a
    page's translation, accessed or dirty bit changes under the
    cores' feet. *)

(** {1 Cost accounting} *)

val pending_cap_ns : int
(** Pending time at which {!charge} flushes: 10 µs. *)

val charge : t -> int -> unit
(** Add [ns] of CPU work; flushes (and so may sleep) once the pending
    time reaches the 10 µs cap. *)

val flush : t -> unit
(** Sleep the calling fiber for the pending time, if any. *)

(** {1 Data path (call from a fiber)}

    Scalar accesses must not straddle a page: they raise
    [Invalid_argument "Kernel: scalar access straddles a page
    boundary"]. [_at] variants take a base address plus an [int] byte
    offset and split the effective address with int arithmetic only —
    app hot loops use them to walk an arena without boxing an [Int64]
    per access; their semantics equal the plain accessors' at
    [Int64.add base (Int64.of_int off)]. *)

val read_u8 : t -> int64 -> int
val read_u16 : t -> int64 -> int
val read_u32 : t -> int64 -> int
val read_u64 : t -> int64 -> int64
val write_u8 : t -> int64 -> int -> unit
val write_u16 : t -> int64 -> int -> unit
val write_u32 : t -> int64 -> int -> unit
val write_u64 : t -> int64 -> int64 -> unit
val read_u8_at : t -> int64 -> int -> int
val read_u16_at : t -> int64 -> int -> int
val read_u32_at : t -> int64 -> int -> int
val read_u64_at : t -> int64 -> int -> int64
val write_u8_at : t -> int64 -> int -> int -> unit
val write_u16_at : t -> int64 -> int -> int -> unit
val write_u32_at : t -> int64 -> int -> int -> unit
val write_u64_at : t -> int64 -> int -> int64 -> unit

val read_bytes : t -> int64 -> bytes -> int -> int -> unit
(** [read_bytes c addr buf off len] copies [len] bytes at [addr] into
    [buf] at [off], page by page, charging one access per cache line
    moved. *)

val write_bytes : t -> int64 -> bytes -> int -> int -> unit

val touch : t -> int64 -> unit
(** Fault the page containing the address in (a load without reading
    data). *)

(** {1 Kernel-level accessors}

    The data path as a kernel exposes it: every accessor takes the
    kernel and a [~core] and forwards to that core's {!t}. *)

module type ACCESSORS = sig
  type k

  val read_u8 : k -> core:int -> int64 -> int
  val read_u16 : k -> core:int -> int64 -> int
  val read_u32 : k -> core:int -> int64 -> int
  val read_u64 : k -> core:int -> int64 -> int64
  val write_u8 : k -> core:int -> int64 -> int -> unit
  val write_u16 : k -> core:int -> int64 -> int -> unit
  val write_u32 : k -> core:int -> int64 -> int -> unit
  val write_u64 : k -> core:int -> int64 -> int64 -> unit
  val read_bytes : k -> core:int -> int64 -> bytes -> int -> int -> unit
  val write_bytes : k -> core:int -> int64 -> bytes -> int -> int -> unit
  val read_u8_at : k -> core:int -> int64 -> int -> int
  val read_u16_at : k -> core:int -> int64 -> int -> int
  val read_u32_at : k -> core:int -> int64 -> int -> int
  val read_u64_at : k -> core:int -> int64 -> int -> int64
  val write_u8_at : k -> core:int -> int64 -> int -> int -> unit
  val write_u16_at : k -> core:int -> int64 -> int -> int -> unit
  val write_u32_at : k -> core:int -> int64 -> int -> int -> unit
  val write_u64_at : k -> core:int -> int64 -> int -> int64 -> unit

  val compute : k -> core:int -> int -> unit
  (** Charge [ns] of CPU work to the core (batched; see {!flush}). *)

  val flush : k -> core:int -> unit
  (** Synchronize the core's accumulated fast-path time with the
      engine clock. Called automatically on faults and every ~10 us of
      accumulated work. *)

  val touch : k -> core:int -> int64 -> unit
  (** Fault the page containing the address in. *)
end

module Accessors (K : sig
  type k

  val cpu : k -> core:int -> t
end) : ACCESSORS with type k := K.k
