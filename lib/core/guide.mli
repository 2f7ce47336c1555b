(** App-aware guide API (§4.1, §4.3, §4.4).

    A guide is a pluggable module — compiled separately from the
    application, like a shared library — that refines DiLOS's default
    behaviour using application semantics. DiLOS exposes two guide
    points:

    - a {e prefetch guide} invoked from the page fault handler while
      the faulted page's RDMA fetch is in flight; it can issue page
      prefetches and {e subpage} fetches on its own queues and parse
      the returned bytes (e.g. follow linked-list pointers);
    - a {e reclaim guide} asked by the cleaner which byte ranges of a
      page are live, enabling vectorized writes/fetches that skip free
      space (guided paging, §4.4). *)

type prefetch_ops = {
  pf_prefetch : int64 -> unit;
      (** Asynchronously fetch the page containing this address (no-op
          if it is already local or in flight). *)
  pf_fetch_sub : int64 -> int -> (bytes -> unit) -> unit;
      (** [pf_fetch_sub addr len k] fetches [len] remote bytes at
          [addr] on the guide's own queue and calls [k] with the data.
          The callback runs in completion context and must not block.
          If the page holding [addr] is local, [k] runs immediately
          with the local bytes. *)
  pf_is_local : int64 -> bool;
  pf_now : unit -> Sim.Time.t;
}

type fault_info = {
  fi_addr : int64;  (** faulting virtual address *)
  fi_hit_ratio : float;  (** recent prefetch hit ratio from the tracker *)
  fi_history : int array;  (** recent fault VPNs, most recent first *)
}

type prefetch_guide = {
  pg_name : string;
  pg_on_fault : prefetch_ops -> fault_info -> bool;
      (** Return [true] if the guide handled prefetching for this
          fault; [false] falls back to the default prefetcher. *)
}

type reclaim_guide = {
  rg_name : string;
  rg_live_segments : int64 -> (int * int) list option;
      (** [rg_live_segments page_base] returns the live (offset, len)
          byte ranges of the page, fewer than
          {!Params.guided_max_vector} segments and in increasing
          offset order — or [None] when the whole page must move. *)
}

val clamp_segments : (int * int) list -> (int * int) list
(** Enforce the max-vector rule by merging the closest segments until
    at most {!Params.guided_max_vector} remain. Input must be sorted
    by offset and non-overlapping. *)
