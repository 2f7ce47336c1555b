(** Memory node server.

    Mirrors the paper's memory node (§5): a process that accepts a
    setup request from the computing node, registers its memory region
    with its RNIC (using huge TLB pages so the RNIC page table fits in
    NIC cache), and then steps aside — every data-path operation is a
    one-sided RDMA served by the (simulated) RNIC against the
    {!Page_store}.

    A server is either one addressable shard instance ({!create},
    which takes the shard's id) or the connect point for a whole
    {!Replica_group} ({!create_replicated}) — the computing node dials
    the same way in both cases and sees one flat address space. *)

type t

val create :
  eng:Sim.Engine.t ->
  size:int64 ->
  ?huge_pages:bool ->
  ?shard_id:int ->
  ?faults:Faults.Plan.t ->
  unit ->
  t
(** One shard instance. [size] is the amount of remote memory
    exported, in bytes. [shard_id] (default 0) names the instance in
    traces ("memnode" for shard 0, "memnode/shardN" otherwise).
    [faults] attaches a deterministic fault campaign to every fabric
    this server hands out (see {!Faults.Plan}). *)

val create_replicated :
  eng:Sim.Engine.t ->
  size:int64 ->
  ?huge_pages:bool ->
  ?config:Replica_group.config ->
  ?faults:Faults.Plan.t ->
  unit ->
  t
(** A replica group behind one connect point: [config.shards] shard
    instances with [config.replication] copies per page. [faults]
    additionally arms the plan's scripted [kill-shard] /
    [recover-shard] schedule on the group. *)

val of_topology :
  eng:Sim.Engine.t ->
  size:int64 ->
  ?shards:int ->
  ?replication:int ->
  ?faults:Faults.Plan.t ->
  unit ->
  t
(** The memory node of one run: a single instance ({!create}) unless
    [shards > 1], [replication > 1] or [faults] scripts a shard
    kill/recover drill; then a {!create_replicated} group of
    [max shards replication] shards. [shards] and [replication]
    default to 1. *)

val connect :
  t ->
  ?nic_config:Rdma.Nic.config ->
  ?extra_completion_delay:Sim.Time.t ->
  ?stats:Sim.Stats.t ->
  ?bw_bucket:Sim.Time.t ->
  unit ->
  Rdma.Fabric.t
(** Perform connection setup (control path) and return the fabric the
    computing node uses from then on. On a replicated server, [stats]
    also resolves the group's [repl_*] counters. *)

val store : t -> Page_store.t
(** The single shard's store; on a replicated server, shard 0's. *)

val size : t -> int64
val shard_id : t -> int

val group : t -> Replica_group.t option
(** The replica group behind {!create_replicated} servers. *)
