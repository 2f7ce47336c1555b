(** Experiment harness: boot a system, run a workload fiber, collect
    results. *)

type system =
  | Dilos of Dilos.Kernel.prefetch_kind
  | Dilos_guided of Dilos.Kernel.prefetch_kind  (** + allocator reclaim guide *)
  | Dilos_tcp of Dilos.Kernel.prefetch_kind  (** TCP-emulation delay (§6.2) *)
  | Fastswap
  | Fastswap_no_ra  (** readahead disabled (ablation) *)
  | Aifm  (** TCP backend, as compared in the paper *)
  | Aifm_rdma

val system_name : system -> string

type instance =
  | I_dilos of Dilos.Kernel.t
  | I_fastswap of Fastswap.Kernel.t
  | I_aifm of Aifm.Runtime.t

type ctx = {
  eng : Sim.Engine.t;
  instance : instance;
  stats : Sim.Stats.t;
  bw : Rdma.Bandwidth.t;
  mem : core:int -> Memif.t;
  cores : int;
}

val memif_of_instance : instance -> core:int -> Memif.t

type 'a result = {
  value : 'a;
  elapsed : Sim.Time.t;  (** simulated time the workload fiber took *)
  run_stats : Sim.Stats.t;
  rx_bytes : int;
  tx_bytes : int;
}

val run :
  system ->
  local_mem:int ->
  ?cores:int ->
  ?remote_size:int64 ->
  ?fault_spec:Faults.Spec.t ->
  ?fault_seed:int ->
  ?shards:int ->
  ?replication:int ->
  ?obs:Obs.Registry.t ->
  ?observe:(ctx -> unit) ->
  (ctx -> 'a) ->
  'a result
(** Boot the system on a fresh engine, run the workload in a fiber,
    shut down, and report. [elapsed] excludes boot. [fault_spec] (with
    [fault_seed], default 1) attaches a deterministic fault-injection
    campaign to the fabric — see {!Faults.Spec.parse} for the scenario
    language. [shards] / [replication] (default 1/1) size the
    {!Memnode.Replica_group} behind the memory node (see
    {!Memnode.Server.create}); a kill/recover drill in [fault_spec] is
    armed on it. [obs] installs an Observatory registry for the whole
    run — BEFORE boot, because QPs, shards and kernels resolve their
    labeled handles in their constructors — and uninstalls it on
    return. [observe] runs between boot and workload start, with the
    run's engine and stats in hand — the attach point for a tracer or
    a health monitor. *)

