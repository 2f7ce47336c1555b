module Buf = Sim.Bigbuf

type target = {
  t_read : int64 -> Buf.t -> int -> int -> unit;
  t_stage : Buf.t -> int -> int -> int;
  t_land : int64 -> int -> int -> unit;
  t_unstage : int -> unit;
}

(* Raised by a target when no replica of the addressed page is alive
   (see [Memnode.Replica_group]): the RNIC's RC connection to the
   remote region is gone and no amount of wire-level retransmission
   can bring the bytes back. The QP surfaces it through the work
   request's [on_error] (counted as a permanent failure); a caller
   that supplied none gets the exception re-raised, which aborts the
   simulation run — losing a page silently is never an option. *)
exception Unreachable of int64

let cat_rdma = Trace.category "rdma"
let op_name = function Nic.Read -> "read" | Nic.Write -> "write"

type seg = { raddr : int64; loff : int; len : int }

let page_size = 4096
let empty_buf : Buf.t = Buf.create 0

(* Counter cells resolved once at [create]; posting is per-fault /
   per-prefetch hot path and must not hash counter names. *)
type hstats = {
  c_reads : Sim.Stats.counter;
  c_read_bytes : Sim.Stats.counter;
  c_writes : Sim.Stats.counter;
  c_write_bytes : Sim.Stats.counter;
  c_read_batches : Sim.Stats.counter;
  (* Fault-injection visibility (all zero on a healthy fabric). *)
  c_comp_errors : Sim.Stats.counter;
  c_timeouts : Sim.Stats.counter;
  c_retries : Sim.Stats.counter;
  c_retrans : Sim.Stats.counter;
  c_dups : Sim.Stats.counter;
  c_perm_failures : Sim.Stats.counter;
}

(* The steady-state fault path must not allocate per completion, so a
   work request is not a set of closures: it is a [comp] record
   recycled through a per-QP free list, carrying permanent thunks
   ([c_fn], [c_timeout_fn], [c_retry_fn]) that the engine schedules.
   A WRITE's payload is staged in the target at post, one handle per
   remote 4 KiB block it covers, kept in [c_staged]. *)
type t = {
  eng : Sim.Engine.t;
  nic : Nic.t;
  target : target;
  region : Region.t;
  rkey : int;
  bw : Bandwidth.t option;
  hstats : hstats option;
  (* Observatory: per-QP labeled series, resolved at [create] against
     whatever registry is installed (shared sink cells otherwise) —
     same zero-alloc increment either way. *)
  ob_read_ops : Obs.Registry.counter;
  ob_read_bytes : Obs.Registry.counter;
  ob_write_ops : Obs.Registry.counter;
  ob_write_bytes : Obs.Registry.counter;
  ob_retries : Obs.Registry.counter;
  huge_pages : bool;
  extra_completion_delay : Sim.Time.t;
  faults : Faults.Plan.t option;
      (* non-passthrough plan from the NIC, cached so the healthy path
         costs one physical-equality test *)
  name : string;
  trk : int; (* trace track: one timeline row per QP *)
  lane : Sim.Engine.lane; (* healthy-path completions, in post order *)
  mutable next_free : Sim.Time.t;
  mutable comps : comp array; (* every record made, by [c_id] *)
  mutable ncomps : int;
  mutable free_ids : int array; (* [free_ids.(0 .. nfree-1)]: free records *)
  mutable nfree : int;
}

(* [post] sets every payload field ([c_segs], [c_buf], [c_on_complete],
   [c_on_error], [c_fa]), so [recycle] leaves them as they are: a
   pooled record keeps its last WR's segments, buffer and continuations
   alive until it is reused, which the pool's size bounds, and
   scrubbing them would cost a write barrier each per WR. *)
and comp = {
  c_qp : t;
  c_id : int;
  mutable c_op : Nic.op;
  mutable c_bytes : int;
  mutable c_segments : int;
  mutable c_segs : seg list;
  mutable c_buf : Buf.t;
  mutable c_staged : int array; (* a WRITE's staged handles, in segment order *)
  mutable c_nstaged : int;
  mutable c_landed : int; (* handles consumed by [t_land] so far *)
  mutable c_on_complete : unit -> unit;
  mutable c_on_error : (unit -> unit) option;
  mutable c_fa : Trace.fetch_attrib option;
  (* The current attempt, instants in ns (ints, so storing them does
     not box): [c_began] is the doorbell write, [c_start] the send
     engine picking the WR up, [c_completion] its (possibly
     fault-delayed) completion. Under a plan, [c_wire] holds the
     attempt's drawn outcome: whether that completion arrives in
     error, and so on. *)
  mutable c_try : int;
  mutable c_began : int;
  mutable c_start : int;
  mutable c_completion : int;
  c_wire : Faults.Plan.wire;
  mutable c_fn : unit -> unit;
  mutable c_timeout_fn : unit -> unit;
  mutable c_retry_fn : unit -> unit;
}

let create ~eng ~nic ~target ~region ~rkey ?bw ?stats ?(huge_pages = true)
    ?(extra_completion_delay = Sim.Time.zero) ~name () =
  let hstats =
    Option.map
      (fun st ->
        {
          c_reads = Sim.Stats.counter st "rdma_reads";
          c_read_bytes = Sim.Stats.counter st "rdma_read_bytes";
          c_writes = Sim.Stats.counter st "rdma_writes";
          c_write_bytes = Sim.Stats.counter st "rdma_write_bytes";
          c_read_batches = Sim.Stats.counter st "rdma_read_batches";
          c_comp_errors = Sim.Stats.counter st "rdma_comp_errors";
          c_timeouts = Sim.Stats.counter st "rdma_timeouts";
          c_retries = Sim.Stats.counter st "rdma_retries";
          c_retrans = Sim.Stats.counter st "rdma_retrans_delays";
          c_dups = Sim.Stats.counter st "rdma_dup_completions";
          c_perm_failures = Sim.Stats.counter st "rdma_perm_failures";
        })
      stats
  in
  let faults =
    match Nic.faults nic with
    | Some p when not (Faults.Plan.passthrough p) -> Some p
    | Some _ | None -> None
  in
  let ob_counter metric op =
    Obs.Registry.counter ~name:metric
      ~labels:(("qp", name) :: (match op with None -> [] | Some o -> [ ("op", o) ]))
      ()
  in
  {
    eng;
    nic;
    target;
    region;
    rkey;
    bw;
    hstats;
    ob_read_ops = ob_counter "rdma_qp_ops" (Some "read");
    ob_read_bytes = ob_counter "rdma_qp_bytes" (Some "read");
    ob_write_ops = ob_counter "rdma_qp_ops" (Some "write");
    ob_write_bytes = ob_counter "rdma_qp_bytes" (Some "write");
    ob_retries = ob_counter "rdma_qp_retries" None;
    huge_pages;
    extra_completion_delay;
    faults;
    name;
    trk = Trace.track name;
    lane = Sim.Engine.lane eng;
    next_free = Sim.Time.zero;
    comps = [||];
    ncomps = 0;
    free_ids = [||];
    nfree = 0;
  }

let name t = t.name

let total_len segs = List.fold_left (fun acc s -> acc + s.len) 0 segs

(* Serialization (occupancy) time of a work request on the send
   engine: per-request overhead + payload at link rate. *)
let wr_overhead_ns = 150

let occupancy t ~bytes_ ~segments =
  let c = Nic.config t.nic in
  let seg_extra = if segments > 1 then (segments - 1) * c.Nic.per_segment_ns else 0 in
  let long_extra =
    if segments > 3 then (segments - 3) * c.Nic.long_vector_penalty_ns else 0
  in
  Sim.Time.ns
    (wr_overhead_ns + seg_extra + long_extra
    + int_of_float (c.Nic.per_byte_ns *. float_of_int bytes_))

(* Top-level recursions, not [List.iter] closures: every READ walks
   its segments twice (validate, land), and a closure allocates. *)
let rec check_segs t buf = function
  | [] -> ()
  | s :: rest ->
      Region.check t.region ~rkey:t.rkey ~addr:s.raddr ~len:s.len;
      if s.loff < 0 || s.loff + s.len > Buf.length buf then
        invalid_arg "Qp: segment outside local buffer";
      check_segs t buf rest

let validate t segs buf =
  if segs = [] then invalid_arg "Qp: empty segment list";
  check_segs t buf segs

let rec land_reads t buf = function
  | [] -> ()
  | s :: rest ->
      t.target.t_read s.raddr buf s.loff s.len;
      land_reads t buf rest

(* A WRITE's segments, cut at remote 4 KiB block boundaries, one
   staged handle per piece: staged at post, landed in the same order
   at completion. A segment inside one block, the common case, passes
   its own [raddr] on; only a piece of a longer one boxes a fresh
   address. *)
let[@inline] piece raddr len = Int.min len (page_size - (Int64.to_int raddr land (page_size - 1)))

let push_staged c h =
  if c.c_nstaged = Array.length c.c_staged then begin
    let a = Array.make (2 * c.c_nstaged) 0 in
    Array.blit c.c_staged 0 a 0 c.c_nstaged;
    c.c_staged <- a
  end;
  c.c_staged.(c.c_nstaged) <- h;
  c.c_nstaged <- c.c_nstaged + 1

let rec stage_span t c buf raddr loff len =
  let n = piece raddr len in
  push_staged c (t.target.t_stage buf loff n);
  if len > n then stage_span t c buf (Int64.add raddr (Int64.of_int n)) (loff + n) (len - n)

let rec stage_segs t c buf = function
  | [] -> ()
  | s :: rest ->
      if s.len > 0 then stage_span t c buf s.raddr s.loff s.len;
      stage_segs t c buf rest

let rec land_span t c raddr len =
  let n = piece raddr len in
  let h = c.c_staged.(c.c_landed) in
  c.c_landed <- c.c_landed + 1;
  t.target.t_land raddr h n;
  if len > n then land_span t c (Int64.add raddr (Int64.of_int n)) (len - n)

let rec land_writes t c = function
  | [] -> ()
  | s :: rest ->
      if s.len > 0 then land_span t c s.raddr s.len;
      land_writes t c rest

(* Every attempt of a [bytes_]-byte WR bumps the run's Stats and the
   QP's labeled registry series alike, so the two views always
   agree. *)
let count_op t op bytes_ =
  (match op with
  | Nic.Read ->
      Obs.Registry.cincr t.ob_read_ops;
      Obs.Registry.cadd t.ob_read_bytes bytes_
  | Nic.Write ->
      Obs.Registry.cincr t.ob_write_ops;
      Obs.Registry.cadd t.ob_write_bytes bytes_);
  match t.hstats with
  | None -> ()
  | Some h -> (
      match op with
      | Nic.Read ->
          Sim.Stats.cincr h.c_reads;
          Sim.Stats.cadd h.c_read_bytes bytes_
      | Nic.Write ->
          Sim.Stats.cincr h.c_writes;
          Sim.Stats.cadd h.c_write_bytes bytes_)

let meter t op bytes_ =
  match t.bw with
  | None -> ()
  | Some bw -> (
      match op with
      | Nic.Read -> Bandwidth.record bw Bandwidth.Rx bytes_
      | Nic.Write -> Bandwidth.record bw Bandwidth.Tx bytes_)

let fcount t sel =
  match t.hstats with None -> () | Some h -> Sim.Stats.cincr (sel h)

(* -- the work-request path --------------------------------------- *)

(* Back to the free list, exactly once per WR: on success, on
   permanent failure or on [Unreachable]. A WRITE's handles that did
   not land are unstaged at the same point. The record is free before
   the caller's continuation runs, so a continuation that posts a new
   WR can reuse this very record. The free list holds record ids, and
   [free_ids] has room for every record, so a recycle stores ints
   only: no write barrier. *)
let recycle c =
  let t = c.c_qp in
  for i = c.c_landed to c.c_nstaged - 1 do
    t.target.t_unstage c.c_staged.(i)
  done;
  c.c_nstaged <- 0;
  c.c_landed <- 0;
  t.free_ids.(t.nfree) <- c.c_id;
  t.nfree <- t.nfree + 1

(* One service attempt: a doorbell, then the send engine's occupancy,
   then the completion a wire latency after service starts. Under a
   fault plan the attempt also draws its wire outcome, and a
   retransmission timer races the (possibly NACK-delayed,
   stall-deferred) completion through cancellable engine timers. A
   timed-out attempt's late completion is dropped — the NIC ignores
   stale responses — so a retried READ never lands twice. Without a
   plan nothing is drawn and no timer is armed. *)
let launch c =
  let t = c.c_qp in
  let now = Sim.Engine.now t.eng in
  let posted = Sim.Time.add now (Nic.doorbell t.nic) in
  let start = Sim.Time.max posted t.next_free in
  let bytes_ = c.c_bytes and segments = c.c_segments in
  t.next_free <- Sim.Time.add start (occupancy t ~bytes_ ~segments);
  let latency =
    Nic.latency t.nic c.c_op ~bytes_ ~segments ~huge_pages:t.huge_pages
  in
  let completion =
    Sim.Time.add (Sim.Time.add start latency) t.extra_completion_delay
  in
  count_op t c.c_op bytes_;
  (match c.c_fa with
  | Some a -> a.Trace.fa_attempts <- a.Trace.fa_attempts + 1
  | None -> ());
  c.c_began <- Int64.to_int now;
  c.c_start <- Int64.to_int start;
  match t.faults with
  | None ->
      c.c_completion <- Int64.to_int completion;
      Sim.Engine.lane_at t.lane completion c.c_fn
  | Some plan ->
      let w = c.c_wire in
      Faults.Plan.wire plan ~completion w;
      if w.Faults.Plan.w_retransmitted then fcount t (fun h -> h.c_retrans);
      if w.Faults.Plan.w_duplicate then fcount t (fun h -> h.c_dups);
      c.c_completion <- w.Faults.Plan.w_completion;
      let completion = Int64.of_int c.c_completion in
      let timeout_at = Sim.Time.add start (Faults.Plan.timeout plan) in
      if Sim.Time.compare timeout_at completion < 0 then begin
        (* The timeout is due first, so it wins the race: the late
           completion still arrives, at its own (time, seq) slot, and
           is dropped there. *)
        Sim.Engine.at t.eng completion ignore;
        Sim.Engine.at t.eng timeout_at c.c_timeout_fn
      end
      else Sim.Engine.at t.eng completion c.c_fn

(* A failed attempt (error completion or timeout) ending at [ended].
   The QP re-launches the same record after a bounded exponential
   backoff (with plan-RNG jitter). After [max_retries] attempts a WR
   with [on_error] is abandoned; one without keeps retransmitting at
   the backoff ceiling (sync wrappers and background prefetchers rely
   on this transparent mode). The failed window and the backoff are
   retry overhead in the attribution, so the components tile the
   interval from the post to the completion. *)
let fail_attempt c plan ~ended ~reason =
  let t = c.c_qp in
  (match c.c_fa with
  | Some a ->
      a.Trace.fa_backoff_ns <- a.Trace.fa_backoff_ns + ended - c.c_began
  | None -> ());
  if Trace.enabled cat_rdma then
    Trace.complete cat_rdma ~name:"attempt_failed" ~track:t.trk
      ~t0:(Int64.of_int c.c_began) ~t1:(Int64.of_int ended) ~async:true
      ~args:[ ("try", Trace.I c.c_try); ("reason", Trace.S reason) ]
      ();
  match c.c_on_error with
  | Some fail when c.c_try >= Faults.Plan.max_retries plan ->
      fcount t (fun h -> h.c_perm_failures);
      if Trace.enabled cat_rdma then
        Trace.instant cat_rdma ~name:"perm_failure" ~track:t.trk
          ~args:[ ("try", Trace.I c.c_try) ] ();
      recycle c;
      fail ()
  | Some _ | None ->
      fcount t (fun h -> h.c_retries);
      Obs.Registry.cincr t.ob_retries;
      let delay = Faults.Plan.backoff plan ~attempt:c.c_try in
      (match c.c_fa with
      | Some a ->
          a.Trace.fa_backoff_ns <- a.Trace.fa_backoff_ns + Int64.to_int delay
      | None -> ());
      if Trace.enabled cat_rdma then
        Trace.instant cat_rdma ~name:"retry" ~track:t.trk
          ~args:
            [
              ("try", Trace.I c.c_try);
              ("backoff_ns", Trace.I (Int64.to_int delay));
            ]
          ();
      Sim.Engine.after t.eng delay c.c_retry_fn

(* The completion of an attempt, with or without a plan: land the
   bytes, charge the successful attempt's queue and wire time, record
   the op span, recycle, then continue. *)
let complete c =
  let t = c.c_qp in
  match t.faults with
  | Some plan when c.c_wire.Faults.Plan.w_error ->
      fcount t (fun h -> h.c_comp_errors);
      fail_attempt c plan ~ended:c.c_completion ~reason:"comp_error"
  | Some _ | None -> (
      meter t c.c_op c.c_bytes;
      let unreachable =
        try
          (match c.c_op with
          | Nic.Read -> land_reads t c.c_buf c.c_segs
          | Nic.Write -> land_writes t c c.c_segs);
          None
        with Unreachable _ as exn -> Some exn
      in
      (match c.c_fa with
      | Some a ->
          a.Trace.fa_queue_ns <- a.Trace.fa_queue_ns + c.c_start - c.c_began;
          a.Trace.fa_wire_ns <- a.Trace.fa_wire_ns + c.c_completion - c.c_start
      | None -> ());
      if Trace.enabled cat_rdma then
        Trace.complete cat_rdma ~name:(op_name c.c_op) ~track:t.trk
          ~t0:(Int64.of_int c.c_began) ~async:true
          ~args:
            (("bytes", Trace.I c.c_bytes)
            :: ("segments", Trace.I c.c_segments)
            ::
            (match t.faults with
            | None -> []
            | Some _ -> [ ("try", Trace.I c.c_try) ]))
          ();
      let k = c.c_on_complete and kerr = c.c_on_error in
      recycle c;
      match unreachable with
      | None -> k ()
      | Some exn -> (
          (* The wire delivered, but the replica set is gone: retrying
             cannot help, so skip the backoff ladder and surface a
             permanent failure immediately. *)
          fcount t (fun h -> h.c_perm_failures);
          if Trace.enabled cat_rdma then
            Trace.instant cat_rdma ~name:"unreachable" ~track:t.trk ();
          match kerr with Some fail -> fail () | None -> raise exn))

(* The timeout beat the completion (whose event [launch] made a no-op):
   fail the attempt. Armed only under a plan. *)
let time_out c =
  let t = c.c_qp in
  match t.faults with
  | None -> ()
  | Some plan ->
      fcount t (fun h -> h.c_timeouts);
      fail_attempt c plan
        ~ended:(c.c_start + Int64.to_int (Faults.Plan.timeout plan))
        ~reason:"timeout"

let comp_take t =
  if t.nfree = 0 then begin
    let c =
      {
        c_qp = t;
        c_id = t.ncomps;
        c_op = Nic.Read;
        c_bytes = 0;
        c_segments = 0;
        c_segs = [];
        c_buf = empty_buf;
        c_staged = [| 0 |];
        c_nstaged = 0;
        c_landed = 0;
        c_on_complete = ignore;
        c_on_error = None;
        c_fa = None;
        c_try = 0;
        c_began = 0;
        c_start = 0;
        c_completion = 0;
        c_wire = Faults.Plan.wire_cell ();
        c_fn = ignore;
        c_timeout_fn = ignore;
        c_retry_fn = ignore;
      }
    in
    c.c_fn <- (fun () -> complete c);
    c.c_timeout_fn <- (fun () -> time_out c);
    c.c_retry_fn <-
      (fun () ->
        c.c_try <- c.c_try + 1;
        launch c);
    let cap = Array.length t.comps in
    (* Every record is in use here, so [free_ids] has nothing to keep. *)
    if t.ncomps = cap then begin
      let ncap = if cap = 0 then 8 else cap * 2 in
      let a = Array.make ncap c in
      Array.blit t.comps 0 a 0 t.ncomps;
      t.comps <- a;
      t.free_ids <- Array.make ncap 0
    end;
    t.comps.(t.ncomps) <- c;
    t.ncomps <- t.ncomps + 1;
    c
  end
  else begin
    t.nfree <- t.nfree - 1;
    t.comps.(t.free_ids.(t.nfree))
  end

(* -- posting ----------------------------------------------------- *)

(* Shared post path, for a validated WR in record [c] (a WRITE's
   payload already staged). *)
let post ?on_error ?fa c op ~segs ~buf ~on_complete =
  c.c_op <- op;
  c.c_bytes <- total_len segs;
  c.c_segments <- List.length segs;
  c.c_segs <- segs;
  (* Nearly every WR names the same frame slab and no attribution (or
     the same one): a store only when the value changes skips a write
     barrier. *)
  if c.c_buf != buf then c.c_buf <- buf;
  c.c_on_complete <- on_complete;
  c.c_on_error <- on_error;
  if c.c_fa != fa then c.c_fa <- fa;
  c.c_try <- 1;
  launch c

let post_read ?on_error ?fa t ~segs ~buf ~on_complete =
  validate t segs buf;
  post ?on_error ?fa (comp_take t) Nic.Read ~segs ~buf ~on_complete

(* Batch bookkeeping for a fetch window posted as one chain of
   one-page [post_read]s: one doorbell's worth of counter + trace for
   the whole window. *)
let note_read_batch t ~wrs =
  if wrs > 0 then begin
    (match t.hstats with
    | Some h -> Sim.Stats.cincr h.c_read_batches
    | None -> ());
    if Trace.enabled cat_rdma then
      Trace.instant cat_rdma ~name:"read_batch" ~track:t.trk
        ~args:[ ("wrs", Trace.I wrs) ]
        ()
  end

(* [count] one-page READs, all validated (once each) before any is
   posted, so a bad page leaves the QP, its counters and the engine
   untouched; the posts then skip [post_read]'s own [validate]. *)
let post_read_pages t ~raddr0 ~buf ~offs ~count ~on_page ~on_page_error =
  if count <= 0 then invalid_arg "Qp.post_read_pages: count must be positive";
  if count > Array.length offs then
    invalid_arg "Qp.post_read_pages: count exceeds offs";
  let blen = Buf.length buf in
  let raddr i = Int64.add raddr0 (Int64.of_int (i * page_size)) in
  for i = 0 to count - 1 do
    Region.check t.region ~rkey:t.rkey ~addr:(raddr i) ~len:page_size;
    let off = offs.(i) in
    if off < 0 || off + page_size > blen then
      invalid_arg "Qp.post_read_pages: page outside local buffer"
  done;
  for i = 0 to count - 1 do
    let on_error = Option.map (fun f () -> f i) on_page_error in
    post ?on_error (comp_take t) Nic.Read
      ~segs:[ { raddr = raddr i; loff = offs.(i); len = page_size } ]
      ~buf
      ~on_complete:(fun () -> on_page i)
  done

let post_write ?on_error t ~segs ~buf ~on_complete =
  validate t segs buf;
  (* Capture the payload at post time: the NIC reads local memory when
     the WR is posted, not when the ack returns. It is staged in the
     target, where a whole page becomes the stored block when the WR
     completes. Retransmissions of a timed-out attempt resend the same
     staged payload, which keeps a retried WRITE idempotent. *)
  let c = comp_take t in
  stage_segs t c buf segs;
  post ?on_error c Nic.Write ~segs ~buf ~on_complete

let read t ~raddr ~buf ~off ~len =
  Sim.Engine.suspend t.eng (fun wake ->
      post_read t ~segs:[ { raddr; loff = off; len } ] ~buf ~on_complete:wake)

let write t ~raddr ~buf ~off ~len =
  Sim.Engine.suspend t.eng (fun wake ->
      post_write t ~segs:[ { raddr; loff = off; len } ] ~buf ~on_complete:wake)
