(** App-aware prefetch guide for Redis on DiLOS (paper §6.3, Figs. 5
    and 11).

    Two behaviours, both driven by application hooks and subpage
    fetches:

    - {b GET}: the "redis.get_sds" hook records the value's SDS
      address; when the fault for its first page arrives, the guide
      subpage-fetches the 8-byte SDS header — which lands before the
      full page — and issues page prefetches for exactly the pages the
      value spans.
    - {b LRANGE}: the "redis.lrange_node" hook tracks the current
      quicklist node; the guide subpage-fetches the 32-byte node
      struct, learns the ziplist location/size and the next node,
      prefetches the ziplist's pages and chases the chain a few nodes
      ahead (bounded depth), exactly the PG/SubPG pipeline of
      Fig. 11.

    Installing on a non-DiLOS backend is a no-op (baselines cannot
    host guides). *)

type stats = {
  mutable get_activations : int;
  mutable lrange_activations : int;
  mutable chained_nodes : int;
}

val install : Harness.ctx -> stats
(** Register the loader hooks and the prefetch guide; returns the
    guide's own counters (for tests and reporting). *)
