(** Radix page table in hardware format.

    Four levels, 9 bits per level, leaves holding 512 raw PTE words —
    the same shape the MMU walks on x86-64. This is the structure
    DiLOS reuses as its "unified page table": there is no separate
    swap-cache index, all disaggregation state lives in the PTEs.

    Beside each PTE the leaf holds one {e kernel word}, an immediate
    [int] owned by the kernel that maps the page (a leaf is 1,024 ints:
    PTEs at [[0, 512)], words at [[512, 1024)], every word 0 until
    set). It is where per-page paging bookkeeping lives instead of a
    vpn-keyed table:

    - DiLOS ([Dilos.Page_manager]): bit 0 queued on the clock, bit 1
      live dirty-index candidate, bit 2 write-back in flight, bits 3..
      the clock push sequence number;
    - Fastswap: bit 0 queued on the LRU, bit 1 swap-backed (the first
      re-dirtying pays the slot release).

    A word is independent of its PTE: setting one never changes the
    other, and clearing a PTE (munmap) leaves the word as it was.

    Leaves are never freed. That is what keeps the lookup cache valid:
    [t] remembers the last leaf seen in each of 64 slots (direct-mapped
    on [vpn lsr 9]), and [get], [set], [update], [word], [set_word],
    [update_word] and [leaf_slot] consult it before walking. The shared all-zero leaf that
    stands in for absent ones is never cached. *)

type t

val create : unit -> t

val get : t -> int -> Pte.t
(** [get t vpn] is the entry for virtual page [vpn] ([Pte.zero] when
    no leaf exists). *)

val set : t -> int -> Pte.t -> unit
(** Intermediate levels are allocated on demand. *)

val update : t -> int -> (Pte.t -> Pte.t) -> unit

val word : t -> int -> int
(** [word t vpn] is [vpn]'s kernel word (0 when no leaf exists). *)

val set_word : t -> int -> int -> unit
(** Materializes the path like [set]; the PTE is untouched. *)

val update_word :
  t -> int -> test:int -> expect:int -> keep:int -> set:int -> int
(** [update_word t vpn ~test ~expect ~keep ~set] is one lookup's
    read-modify-write of [vpn]'s kernel word [w]: iff
    [w land test = expect], the word becomes [(w land keep) lor set]
    (materializing the path like [set_word]). Returns [w], the word
    before. [~test:0 ~expect:0] always writes. *)

val leaf_slot : t -> int -> Pte.t array * int
(** [leaf_slot t vpn] exposes the leaf array and index holding the
    entry for [vpn], materializing the path. The index is below 512:
    callers touch the PTE half only. Lets the MMU fast path
    and the hit tracker touch PTEs without re-walking. *)

val iter_range : t -> vpn:int -> count:int -> (int -> Pte.t -> unit) -> unit
(** Visit entries for [vpn .. vpn+count-1] (unmapped ones read as
    [Pte.zero]); skips over entirely absent leaves cheaply. *)

val count_mapped : t -> int
(** Number of non-zero PTEs (diagnostic, O(mapped)); kernel words are
    not counted. *)
