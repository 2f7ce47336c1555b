(** Primary/backup page replication across addressable memnode shards.

    Pages are striped by virtual page number (page [p]'s primary is
    shard [p mod shards], backups follow round-robin) behind ONE flat
    {!Rdma.Qp.target}, so the computing node keeps the single address
    space the paper's memory node exports.

    The group owns ONE {!Page_store}: every live synced replica of a
    page holds the same bytes, so they are kept once, and a shard is
    routing, liveness, the pages it is missing and telemetry. Shard [i]
    holds page [p] ({!holds}) iff it is one of [p]'s replicas, it is
    alive, [p] is resident in the store and [i] is not missing [p].

    READs route to the primary and fail over to the first surviving
    synced backup; WRITEs are granule-diffed in place against the store
    and acknowledged once every live synced replica holds them
    (chain-replication ack semantics, with the backups' traffic
    counted), so an acknowledged byte is always re-readable while any
    replica of its page survives. A kill tombstones what the shard
    held; a page whose last holder dies is dropped from the store
    ({!Page_store.drop}) and recorded as lost on every replica, so no
    replica ever serves it again (never as zeros). Scripted
    [kill-shard] / [recover-shard] events arm cancellable engine
    timers; recovery re-replicates missing pages in the background
    under a bandwidth budget, which copies no bytes: it clears the page
    from the shard's missing set. Everything is counted in [repl_*]
    stats. See DESIGN.md §9. *)

type t

type config = {
  shards : int;  (** addressable shard instances, >= 1 *)
  replication : int;  (** copies per page, in [1, shards] *)
  granule : int;  (** dirty-diff granule in bytes; divides 4096 *)
  resync_budget_bytes : int;  (** resync traffic allowed per interval *)
  resync_interval : Sim.Time.t;  (** budget refill period *)
}

val default_config : config
(** 2 shards, replication 2, 256 B granules, 256 KiB / 100 us of
    resync bandwidth. *)

val create :
  eng:Sim.Engine.t ->
  size:int64 ->
  ?config:config ->
  ?faults:Faults.Plan.t ->
  unit ->
  t
(** The group's one sparse {!Page_store} spans [size] bytes (pages
    cost memory only where written, once however many replicas hold
    them), so the exported address space is [0, size) regardless of
    shard count. [faults] arms the plan's
    {!Faults.Plan.kills} / {!Faults.Plan.recovers} schedule as
    cancellable timers; naming a shard outside [0, shards) is an
    [Invalid_argument]. *)

val target : t -> Rdma.Qp.target
(** The one-sided access interface handed to the RNIC. Raises
    {!Rdma.Qp.Unreachable} when every replica of an addressed page is
    dead (or still missing the page mid-resync). *)

val attach_stats : t -> Sim.Stats.t -> unit
(** Resolve the [repl_*] counters against a stats sink (normally the
    kernel's, at connect time) — but only if they can move: the group
    has more than one shard, or its fault plan scripts a drill. A
    one-shard group without a drill adds no key to the sink. *)

val size : t -> int64
val shards : t -> int
val replication : t -> int
val config : t -> config

val store : t -> Page_store.t
(** The group's store: the bytes of every page, valid for each replica
    that {!holds} it. *)

val holds : t -> int -> int -> bool
(** [holds t i vpn]: shard [i] is one of page [vpn]'s replicas, is
    alive, is not missing the page, and the page is resident in
    {!store}. *)

val alive : t -> int -> bool
val syncing : t -> int -> bool
(** [syncing] is true from recovery until re-replication drains. *)

val kill : t -> int -> unit
(** Fail-stop shard [i] now: it holds nothing any more, reads fail
    over to backups, and the first redirected request records the
    failover latency. A page it held that no other replica holds is
    dropped from the store and recorded as lost on every replica.
    Idempotent while dead. *)

val recover : t -> int -> unit
(** Restart shard [i] with empty memory and start the background
    re-replication fiber, which restores the replication factor under
    the resync bandwidth budget: it walks the pages some survivor holds
    and the shard's tombstones, and each page with a surviving holder
    is held again (the bytes are already in the store). Pages with no
    surviving holder are counted in [repl_lost_pages] and stay
    unserved (never zeros). Idempotent while alive. *)

val cancel_drill : t -> unit
(** Cancel all pending scripted kill/recover timers. *)

val max_resync_bytes_per_interval : t -> int
(** High-water mark of resync traffic in one interval (test hook for
    the bandwidth-budget contract: always <= [resync_budget_bytes]). *)
