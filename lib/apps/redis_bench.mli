(** redis-benchmark-style drivers (paper §6.2–6.3, Figs. 10 and 12,
    Table 4).

    GET workloads populate the full keyspace with fixed-size or
    Facebook-photo-mixed values, then issue random GETs; the LRANGE
    workload populates many separate lists (the paper's modification
    of vanilla redis-benchmark) and queries their first elements.
    Per-request latencies go into a histogram for the tail-latency
    table. *)

type value_size = Fixed of int | Fb_mixed
(** [Fb_mixed]: 4/8/16/32/64/128 KiB equally distributed — "data sizes
    of more than 80% of objects in Facebook's photo server". *)

val sample_size : Sim.Rng.t -> value_size -> int

type latency_kind =
  | Service_time
      (** closed loop: issue -> completion of one request; excludes
          any queueing the request would suffer behind earlier ones *)
  | Response_time
      (** open loop: INTENDED arrival -> completion; includes queueing
          delay, which is where overload shows up *)

val latency_kind_name : latency_kind -> string
(** ["service_time"] / ["response_time"], for reports and JSON. *)

type result = {
  requests : int;
  time : Sim.Time.t;
  throughput_rps : float;
      (** 0 (not nan/inf) when [requests = 0] or [time = 0] *)
  latency_kind : latency_kind;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

val result_of_hist :
  requests:int -> time:Sim.Time.t -> kind:latency_kind -> Sim.Histogram.t -> result
(** Summarise a latency histogram. Guards the zero-requests /
    zero-duration cases with [throughput_rps = 0.]. *)

val fill_value : bytes -> len:int -> index:int -> unit
(** Fill the first [len] bytes with the key's pattern byte and write a
    deterministic sentinel (a function of [index] and the offset) at
    every page boundary, so every page of a multi-page value is
    independently checkable. *)

val verify_value : bytes -> len:int -> index:int -> bool
(** Check every page-boundary sentinel {!fill_value} wrote into the
    first [len] bytes. *)

val key_of : int -> bytes
(** The canonical benchmark key for index [i] ("key:%010d") in a fresh
    buffer, shared with the open-loop serving driver so both address
    one keyspace. *)

val key_bytes : int
(** Length of every key with an index in [[0, 10^10)]: 14. *)

val key_into : bytes -> int -> bytes
(** [key_into buf i] writes {!key_of}[ i] into the caller-owned [buf]
    ([key_bytes] long) and returns [buf], allocating nothing. An index
    outside [[0, 10^10)] has a key of another length: it is returned
    in a fresh buffer and [buf] is left as it was.
    @raise Invalid_argument if [buf] is not [key_bytes] long. *)

val run_get :
  Harness.ctx -> keys:int -> size:value_size -> queries:int -> seed:int -> result
(** SET the whole keyspace, then GET random keys. Timed region covers
    the GETs only. *)

val run_lrange :
  Harness.ctx ->
  lists:int ->
  elements:int ->
  elem_size:int ->
  queries:int ->
  range:int ->
  seed:int ->
  result
(** Populate [lists] quicklists by pushing [elements] elements to
    random lists, then run LRANGE_[range] on random lists. *)

type bandwidth_result = {
  del_rx_mb : float;
  del_tx_mb : float;
  get_rx_mb : float;
  get_tx_mb : float;
  series : (Sim.Time.t * int * int) list;
  del_boundary : Sim.Time.t;  (** when the DEL phase ended *)
}

val run_del_get_bandwidth :
  Harness.ctx -> keys:int -> value_bytes:int -> del_fraction:float -> seed:int ->
  bandwidth_result
(** Fig. 12: populate, DEL a random fraction, then GET every surviving
    key; report bandwidth per phase and the time series. *)
