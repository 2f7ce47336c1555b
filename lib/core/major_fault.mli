(** The telemetry of a major fault, shared by the paging kernels.

    Resolved once at boot: the Stats counters [major_faults],
    [fault_fetch_retries], [zero_fill_faults], [ph_exception_ns],
    [ph_alloc_ns], [ph_fetch_ns] and [ph_reclaim_ns]; the [fault_ns]
    histogram; the Observatory's [kernel_major_faults] and
    [kernel_fault_ns] series for [{system}]; and the latency
    attribution ({!Trace.Attr}), when on. A component only one kernel
    has stays in that kernel. Also the bounds on a page's failed
    fetches and write-backs, which every kernel shares. *)

type t

val create : system:string -> Sim.Stats.t -> t

val count : t -> unit
(** One major fault, in Stats and in the [{system}] series. *)

val fetch_attrib : t -> Trace.fetch_attrib option
(** An accumulator for one demand fetch, when attribution is on. *)

val record :
  t -> total_ns:int -> alloc_ns:int -> fetch_ns:int ->
  Trace.fetch_attrib option -> unit
(** Close one major fault: its latency from the handler's entry, and
    its exception, page-allocation and fetch components. *)

val retried : t -> unit
(** A failed demand fetch is re-issued. *)

val zero_filled : t -> unit
val reclaimed : t -> int -> unit
(** [ns] of a fault spent reclaiming frames. *)

val fetch_failed : int -> int64 -> unit
(** [fetch_failed n addr]: the page at [addr] failed [n] transfers in
    a row. Raises {!Cpu.Page_lost} from the
    {!Params.fault_refetch_max}-th on, instead of retrying forever. *)

type writebacks

val writebacks : Sim.Stats.counter -> writebacks
(** Over the counter of successful write-backs. *)

val writeback_failed : writebacks -> int -> unit
(** A write-back of page [vpn] reached nothing; the kernel re-dirties
    the page to retry it. Raises {!Cpu.Page_lost} ({!fetch_failed})
    once the page has failed {!Params.fault_refetch_max} times with no
    write-back succeeding in between: a fault waiting for its frame
    ends the run instead of waiting forever. *)
