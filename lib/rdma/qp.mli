(** Queue pairs: one-sided READ / WRITE verbs with scatter-gather
    segments.

    Service model: each work request occupies the QP's send engine for
    its serialization time (payload bytes at link rate plus a
    per-request overhead), while its completion fires a full wire
    latency after service starts. Multiple outstanding requests on one
    QP therefore pipeline — throughput is bandwidth-bound, single-op
    latency matches {!Nic.latency}. Requests on different QPs do not
    interfere, modelling the paper's shared-nothing per-core queues
    (§4.5).

    Local buffers are off-heap slabs ({!Sim.Bigbuf}): a caller may
    pass a whole multi-GB frame slab with per-segment offsets into it,
    so page movement never materializes intermediate heap buffers.

    Every work request, READ or WRITE, with or without a fault plan,
    takes one path: one pooled completion record, launched once per
    attempt (doorbell, send-engine occupancy, completion event) and
    finished by one completion handler. A retry re-launches the same
    record; it is recycled, and a WRITE's unlanded staged payloads
    unstaged, exactly once — on success, on permanent failure or on
    {!Unreachable}. Without a fault plan an attempt's completion waits
    in the QP's {!Sim.Engine.lane} (completions come in post order),
    and dispatch is allocation-free. A prefetch window is one
    {!note_read_batch} doorbell followed by one {!post_read} per
    page.

    A WRITE copies its payload once, into the target: {!post_write}
    stages each piece of it (a segment cut at remote 4 KiB block
    boundaries) with [t_stage], and the completion lands the pieces in
    the same order with [t_land]; a memory node adopts a staged whole
    page as the stored block. *)

type target = {
  t_read : int64 -> Sim.Bigbuf.t -> int -> int -> unit;
      (** [t_read raddr dst dst_off len]: copy remote bytes into a
          local buffer (executed at completion time). *)
  t_stage : Sim.Bigbuf.t -> int -> int -> int;
      (** [t_stage src src_off len]: capture [len] (at most 4096) bytes
          of a WRITE's payload when it is posted; returns a handle. *)
  t_land : int64 -> int -> int -> unit;
      (** [t_land raddr h len]: write the [len]-byte staged payload [h]
          at [raddr], inside one remote 4 KiB block (executed at
          completion time). Consumes [h], also when it raises
          {!Unreachable}. *)
  t_unstage : int -> unit;
      (** [t_unstage h]: discard a staged payload that will not land
          (the WR failed). *)
}

type seg = { raddr : int64; loff : int; len : int }
(** One scatter/gather element: remote address, offset into the local
    buffer, and length. *)

exception Unreachable of int64
(** Raised by a {!target} when no replica of the addressed page is
    alive (see [Memnode.Replica_group]). Unlike a wire fault this is
    not retryable: the attempt's op span and attribution are recorded
    as for a success, then the QP counts it under [rdma_perm_failures]
    and fires the work request's [on_error] immediately, with or
    without a fault plan. A WR posted without
    [on_error] re-raises instead, aborting the simulation run: losing
    a page silently is never an option. *)

type t

val create :
  eng:Sim.Engine.t ->
  nic:Nic.t ->
  target:target ->
  region:Region.t ->
  rkey:int ->
  ?bw:Bandwidth.t ->
  ?stats:Sim.Stats.t ->
  ?huge_pages:bool ->
  ?extra_completion_delay:Sim.Time.t ->
  name:string ->
  unit ->
  t

val name : t -> string

val post_read :
  ?on_error:(unit -> unit) ->
  ?fa:Trace.fetch_attrib ->
  t ->
  segs:seg list ->
  buf:Sim.Bigbuf.t ->
  on_complete:(unit -> unit) ->
  unit
(** Asynchronous one-sided READ. May be called from fibers or plain
    callbacks. [buf] is filled at completion time.

    [fa] (latency attribution): when given, the QP accumulates into it
    where this READ's end-to-end time went — send-queue wait (doorbell
    + waiting for the send engine), wire service of the successful
    attempt, and retry overhead (failed-attempt windows + backoff
    delays). The accumulated components tile the interval from this
    call to the completion exactly; see {!Trace.fetch_attrib}.

    Fault semantics (only when the NIC carries a non-passthrough
    {!Faults.Plan}; otherwise every attempt succeeds): each attempt
    draws its wire outcome from the plan and arms a retransmission
    timeout. It may complete in error, be NACK-delayed, or time out
    during a memory-node stall (its late completion is then dropped,
    so a READ never lands twice); the QP then re-launches the same
    work request after a bounded exponential backoff (fresh doorbell
    and occupancy per attempt). Attempts are visible in the
    [rdma_comp_errors] / [rdma_timeouts] / [rdma_retries] /
    [rdma_retrans_delays] / [rdma_dup_completions] counters. Without
    [on_error] the retry loop is unbounded — the op is transparently
    reliable, only slower. With [on_error], after the plan's
    [max_retries] attempts the op is abandoned, [rdma_perm_failures]
    is incremented and [on_error] fires instead of [on_complete]
    (exactly one of the two ever fires). *)

val post_write :
  ?on_error:(unit -> unit) ->
  t ->
  segs:seg list ->
  buf:Sim.Bigbuf.t ->
  on_complete:(unit -> unit) ->
  unit
(** Asynchronous one-sided WRITE. The payload is staged in the target
    when posted, so [buf] may change right after the call; retried
    attempts resend the same staged payload, keeping the WR
    idempotent. [on_error] as in {!post_read}. *)

val note_read_batch : t -> wrs:int -> unit
(** Batch-level bookkeeping for a window of [wrs] READs posted as one
    chain (one doorbell) of {!post_read}s: one [rdma_read_batches]
    bump + trace instant. No-op when [wrs = 0]. *)

val post_read_pages :
  t ->
  raddr0:int64 ->
  buf:Sim.Bigbuf.t ->
  offs:int array ->
  count:int ->
  on_page:(int -> unit) ->
  on_page_error:(int -> unit) option ->
  unit
(** [count] full-page READs — remote page [i] at [raddr0 + i*4096],
    landing at byte offset [offs.(i)] of [buf] — each posted as its
    own one-page {!post_read}, so events, counters and trace spans are
    exactly those of [count] back-to-back posts. [on_page i] fires at
    page [i]'s completion, [on_page_error i] on its permanent failure
    (as [on_error] in {!post_read}). Every page is validated once,
    before any is posted: a bad page raises [Invalid_argument] and
    posts nothing. *)

val read : t -> raddr:int64 -> buf:Sim.Bigbuf.t -> off:int -> len:int -> unit
(** Synchronous single-segment READ (blocks the calling fiber). *)

val write : t -> raddr:int64 -> buf:Sim.Bigbuf.t -> off:int -> len:int -> unit
