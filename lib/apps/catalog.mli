(** The workload catalog: one entry per workload [dilos_sim run] can
    run, with its canonical dims and a runner.

    [Paper] dims are the source paper's evaluation scale — 20 GiB
    sort/analytics working sets with 8 GiB of local DRAM, GB-class
    keyspaces for the service workloads. [Reduced] dims are the
    bench/CI scale: the same shapes a few hundred times smaller, so the
    full matrix runs in seconds. Read by [dilos_sim run] ([--workload],
    [--scale-preset]) and the paper-scale bench targets; EXPERIMENTS.md
    renders the dims. *)

type preset = Paper | Reduced

type dims = {
  scale : int; (* the workload's --scale knob (elements/rows/keys/pages) *)
  local_mem : int; (* local DRAM budget, bytes *)
  ws_bytes : int; (* resulting working set, bytes (for reporting) *)
}

type entry = {
  name : string;  (** as spelled on the command line *)
  paper : dims;
  reduced : dims;
  multicore : bool;  (** honours [cores]; the others run on one core *)
  guide : bool;  (** the Redis app-aware prefetch guide applies *)
  run : Harness.ctx -> scale:int -> seed:int -> cores:int -> string;
      (** Runs inside a {!Harness.run} fiber; returns the result line. *)
}

val entries : entry list
(** Every workload, in CLI order. *)

val dims : preset -> entry -> dims
