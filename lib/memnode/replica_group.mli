(** Primary/backup page replication across addressable memnode shards.

    Pages are striped by virtual page number (page [p]'s primary is
    shard [p mod shards], backups follow round-robin) behind ONE flat
    {!Rdma.Qp.target}, so the computing node keeps the single address
    space the paper's memory node exports. READs route to the primary
    and fail over to the first surviving synced backup; WRITEs are
    granule-diffed against the authoritative copy and mirrored
    synchronously to every live synced replica (chain-replication ack
    semantics), so an acknowledged byte is always re-readable while
    any replica of its page survives. Scripted [kill-shard] /
    [recover-shard] events arm cancellable engine timers; recovery
    re-replicates missing pages in the background under a bandwidth
    budget. Everything is counted in [repl_*] stats. See DESIGN.md
    §9. *)

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
(** Each shard owns a full-[size] sparse {!Page_store} (pages cost
    memory only where written), so the exported address space is
    [0, size) regardless of shard count. [faults] arms the plan's
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

val store : t -> int -> Page_store.t
(** Shard [i]'s backing store (tests; replica invariants). *)

val alive : t -> int -> bool
val syncing : t -> int -> bool
(** [syncing] is true from recovery until re-replication drains. *)

val kill : t -> int -> unit
(** Fail-stop shard [i] now: its DRAM is gone ({!Page_store.reset}),
    reads fail over to backups, and the first redirected request
    records the failover latency. Idempotent while dead. *)

val recover : t -> int -> unit
(** Restart shard [i] with empty memory and start the background
    re-replication fiber, which restores the replication factor under
    the resync bandwidth budget. Pages with no surviving source are
    counted in [repl_lost_pages] and stay unserved (never zeros).
    Idempotent while alive. *)

val cancel_drill : t -> unit
(** Cancel all pending scripted kill/recover timers. *)

val max_resync_bytes_per_interval : t -> int
(** High-water mark of resync traffic in one interval (test hook for
    the bandwidth-budget contract: always <= [resync_budget_bytes]). *)
