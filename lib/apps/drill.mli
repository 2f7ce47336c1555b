(** Scripted recovery drills on a replicated memory node.

    A drill runs one of four compact {!programs} twice on the same replica
    topology — once failure-free, once with a shard killed at a seeded
    instant (plus an optional scripted recovery) — and reports whether
    the computation still produced the exact same bytes, alongside the
    failure's cost: degraded elapsed time, failover latency, resync
    traffic and recovery time. Everything is deterministic: the same
    seed yields a byte-identical {!to_json} report. See DESIGN.md §9
    and EXPERIMENTS.md. *)

type program = {
  name : string;
  scale : int;  (** default workload size *)
  digest : Memif.t -> scale:int -> seed:int -> int64;
      (** Runs the workload and returns the FNV-1a digest of everything
          it read back. Raises [Failure] if the workload's own
          invariant breaks (unsorted output, wrong dict value...). *)
}

val seq : program
val quicksort : program
val kmeans : program
val redis : program

val programs : program list
(** All four, in canonical order: stream, swap-heavy sort, iterative
    scans, pointer chasing. *)

type result = {
  r_program : program;
  r_system : string;
  r_scale : int;
  r_seed : int;
  r_shards : int;
  r_replication : int;
  r_kill_shard : int;
  r_kill_at_ns : int;
  r_detect_ns : int;
  r_recover_at_ns : int option;
  r_clean_ns : int;  (** failure-free run, same replica config *)
  r_drill_ns : int;
  r_clean_digest : int64;
  r_drill_digest : int64;
  r_match : bool;  (** drill digest bit-identical to clean digest *)
  r_failover_reads : int;
  r_failover_latency_ns : int;
  r_recovery_ns : int;
  r_resync_pages : int;
  r_resync_bytes : int;
  r_lost_pages : int;
  r_mirror_writes : int;
  r_mirror_bytes : int;
  r_rdma_retries : int;
  r_kills : int;
  r_recovers : int;
}

val kill_at_ns : clean_ns:int -> seed:int -> int
(** Where the kill lands: a seeded instant in 250–750 per mille of a
    clean run of [clean_ns]; the same seed gives the same fraction. *)

val run :
  system:Harness.system ->
  program:program ->
  ?scale:int ->
  ?local_mem:int ->
  ?seed:int ->
  ?shards:int ->
  ?replication:int ->
  ?kill_shard:int ->
  ?detect:Sim.Time.t ->
  ?recover_after:Sim.Time.t ->
  unit ->
  result
(** Run the clean pass, derive the kill instant ({!kill_at_ns} of the
    clean elapsed time), then run the drill pass with [kill-shard]
    composed with a [detect]-long
    blackout (the failure-detection outage; default 50 us) and, when
    [recover_after] is given, a scripted [recover-shard] that much
    simulated time after the kill. Defaults: the program's scale, 1 MiB
    local DRAM, seed 42, 2 shards, replication 2, kill shard 0. *)

val to_json : result -> string
(** One result as deterministic JSON (fixed field order, integers and
    hex digests only — same seed, byte-identical output). *)

val report_json : result list -> string
(** A JSON array of results, same determinism contract. *)

val pp : Format.formatter -> result -> unit
(** One-line human summary. *)
