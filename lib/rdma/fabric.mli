(** A point-to-point RDMA fabric between the computing node and one
    memory node.

    Owns the NIC model, the shared bandwidth meter, the registered
    remote region and its protection key, and mints queue pairs for
    the paging modules (per-core, per-module — §4.5). The control path
    (connection setup, region registration) is paid once, at
    connection time, as in the paper (§5: "the control-path is slower
    ... used only once at the initialization stage"). *)

type t

val connect :
  eng:Sim.Engine.t ->
  ?nic_config:Nic.config ->
  ?faults:Faults.Plan.t ->
  ?huge_pages:bool ->
  ?extra_completion_delay:Sim.Time.t ->
  ?stats:Sim.Stats.t ->
  target:Qp.target ->
  size:int64 ->
  unit ->
  t
(** [connect ~eng ~target ~size ()] registers a remote region of
    [size] bytes starting at address 0 and returns the fabric.
    [extra_completion_delay] models TCP emulation (paper §6.2:
    14,000 cycles added after each completion). *)

val qp : t -> name:string -> Qp.t
(** Mint a fresh queue pair. Cheap; each paging module takes one per
    core so no two modules ever share a send queue. *)

val bandwidth : t -> Bandwidth.t
val stats : t -> Sim.Stats.t
val region : t -> Region.t
val huge_pages : t -> bool
val setup_cost : Sim.Time.t
(** One-time virtio control-path cost charged by [connect]. *)
