(** Linux swap cache model.

    The swap subsystem keeps an intermediate cache of pages between
    the swap device (here: remote memory) and the page table: swap-ins
    land in the cache first, and a later access to a cached page takes
    a {e minor} fault that merely maps it. Readahead fills the cache
    speculatively. This indirection is precisely the overhead DiLOS's
    unified page table removes (§3.2, §4.1). *)

type entry = {
  frame : int;
  mutable io_inflight : bool;  (** swap-in RDMA still running *)
}

type t

val create : unit -> t
val find : t -> int -> entry option
val insert : t -> int -> entry -> unit
(** @raise Invalid_argument if the VPN is already cached. *)

val remove : t -> int -> unit
val mem : t -> int -> bool
val size : t -> int

val iter : t -> (int -> entry -> unit) -> unit
