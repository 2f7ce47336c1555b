(** Single-address-space layout (the LibOS model).

    DiLOS distinguishes two memory types (§5, compatibility layer):
    ranges created with the MAP_DDC flag are disaggregated (their
    faults go to the DiLOS fault handler and their pages migrate to
    the memory node); other ranges are local-only. Virtual addresses
    map identically onto the memory node's region, so no extra
    translation table is needed — exactly the unified-page-table
    spirit. *)

type vma = { base : int64; len : int64; ddc : bool; vma_name : string }

type t

val create : ?base:int64 -> unit -> t
(** [base] is where the mmap area starts (default 0x10000000, page
    aligned, and within the range of an OCaml [int]). *)

val mmap : t -> len:int -> ddc:bool -> ?name:string -> unit -> int64
(** Reserve a page-aligned range; a one-page guard gap separates
    consecutive mappings. Returns the base address. *)

val munmap : t -> int64 -> vma
(** Remove the mapping starting exactly at the given base.
    @raise Not_found otherwise. *)

val find : t -> int64 -> vma option
(** The mapping containing an address, if any. *)

val is_ddc : t -> int64 -> bool
val vmas : t -> vma list
(** Mappings sorted by base address. *)

val top : t -> int64
(** Highest address ever reserved (the remote region must cover it). *)
