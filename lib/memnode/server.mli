(** Memory node server.

    Mirrors the paper's memory node (§5): a process that accepts a
    setup request from the computing node, registers its memory region
    with its RNIC (using huge TLB pages so the RNIC page table fits in
    NIC cache), and then steps aside — every data-path operation is a
    one-sided RDMA served by the (simulated) RNIC against the
    {!Page_store}.

    Every server is the connect point of a {!Replica_group}: the
    computing node dials it and sees one flat address space. The
    paper's single memory node is the one-shard group with one copy
    per page. *)

type t

val create :
  eng:Sim.Engine.t ->
  size:int64 ->
  ?huge_pages:bool ->
  ?shards:int ->
  ?replication:int ->
  ?faults:Faults.Plan.t ->
  unit ->
  t
(** A group of [max shards replication] shards, each exporting [size]
    bytes of remote memory, with [replication] copies per page.
    [shards] and [replication] default to 1: the single memory node.
    [faults] attaches a deterministic fault campaign to every fabric
    this server hands out (see {!Faults.Plan}) and arms the plan's
    scripted [kill-shard] / [recover-shard] drill on the group. *)

val connect :
  t ->
  ?nic_config:Rdma.Nic.config ->
  ?extra_completion_delay:Sim.Time.t ->
  ?stats:Sim.Stats.t ->
  unit ->
  Rdma.Fabric.t
(** Perform connection setup (control path) and return the fabric the
    computing node uses from then on. [stats] also receives the
    group's [repl_*] counters when the group can move them: more than
    one shard, or a scripted drill (see {!Replica_group.attach_stats}). *)

val store : t -> Page_store.t
(** The group's store: every page's bytes, held once. *)

val size : t -> int64
