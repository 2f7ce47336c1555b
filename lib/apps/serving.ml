(* Open-loop Redis serving driver.

   A generator fiber replays a deterministic Workload.Stream, parking
   until each request's INTENDED arrival instant and then enqueueing
   it — it never waits for the server. Worker fibers drain the queue
   through the Redis store. Two latencies are recorded per request:

   - response time: intended arrival -> completion. This is what a
     client of an open system observes; under overload it grows with
     the queue, without bound.
   - service time: dequeue -> completion. This is what the closed-loop
     benches report, and the only thing they CAN report — a
     closed-loop driver only issues a request once the previous one
     finished, so its "latency" silently omits every request that
     would have queued (coordinated omission).

   The gap between the two percentiles past the saturation knee is the
   whole point of this module. *)

module W = Workload

type config = {
  stream : W.Stream.config;
  requests : int;  (** total requests the generator issues *)
  phases : int;  (** split the run into N equal-count report phases *)
  workers : int;
      (** server fibers draining the queue; 1 models single-threaded
          Redis, more model pipelining *)
}

let default_config stream ~requests =
  { stream; requests; phases = 1; workers = 1 }

type phase = {
  phase_index : int;
  ph_response : Redis_bench.result;
  ph_service : Redis_bench.result;
}

type result = {
  offered_rps : float;  (** the arrival process's configured rate *)
  achieved_rps : float;  (** completions / serving duration *)
  completed : int;
  gets : int;
  sets : int;
  duration : Sim.Time.t;  (** serving start -> last completion *)
  max_queue : int;  (** deepest the arrival queue ever got *)
  response : Redis_bench.result;
  service : Redis_bench.result;
  phases : phase list;
}

(* Redis's per-client static reply buffer (PROTO_REPLY_CHUNK_BYTES). *)
let reply_buffer_bytes = 16 * 1024

type pending = {
  intended : Sim.Time.t;  (** absolute intended arrival instant *)
  key : int;
  op : W.Stream.op;
  vsize : int;
  idx : int;  (** issue index, for phase attribution *)
}

let run (ctx : Harness.ctx) cfg =
  if cfg.requests <= 0 then invalid_arg "Serving.run: requests must be positive";
  if cfg.phases <= 0 then invalid_arg "Serving.run: phases must be positive";
  if cfg.workers <= 0 then invalid_arg "Serving.run: workers must be positive";
  let eng = ctx.Harness.eng in
  let scfg = cfg.stream in
  let stream = W.Stream.create scfg in
  let rds = Redis.create ctx ~keyspace_hint:scfg.W.Stream.keys in
  let m = Redis.mem rds in
  (* Populate the whole keyspace so GETs always hit; values carry
     page-boundary sentinels and are fully verified on every GET. One
     value buffer, sized for the largest value, is refilled per key. *)
  let max_vsize =
    match scfg.W.Stream.value_size with
    | W.Stream.Fixed n -> n
    | W.Stream.Fb_mixed -> Array.fold_left Int.max 0 W.Stream.fb_sizes
  in
  let pop_rng = Sim.Rng.create (scfg.W.Stream.seed + 1) in
  let value = Bytes.create max_vsize in
  let key = Bytes.create Redis_bench.key_bytes in
  for i = 0 to scfg.W.Stream.keys - 1 do
    let n =
      match scfg.W.Stream.value_size with
      | W.Stream.Fixed n -> n
      | W.Stream.Fb_mixed -> Sim.Rng.pick pop_rng W.Stream.fb_sizes
    in
    Redis_bench.fill_value value ~len:n ~index:i;
    Redis.set rds ~key:(Redis_bench.key_into key i) ~value ~len:n
  done;
  m.Memif.flush ();
  (* Serving state. *)
  let q : pending Queue.t = Queue.create () in
  let cv = Sim.Condvar.create eng in
  let done_cv = Sim.Condvar.create eng in
  (* With several workers, two fibers must not operate on one key at
     a time: a SET frees the old value while a faulting GET may still
     be mid-read on it. Per-key exclusion keeps multi-worker runs as
     safe as the single-threaded-Redis default; waiting for the key
     counts as queueing, not service. *)
  let busy : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let free_cv = Sim.Condvar.create eng in
  let closed = ref false in
  let live_workers = ref cfg.workers in
  let max_queue = ref 0 in
  let completed = ref 0 and gets = ref 0 and sets = ref 0 in
  let resp_all = Sim.Histogram.create () in
  let svc_all = Sim.Histogram.create () in
  let resp_ph = Array.init cfg.phases (fun _ -> Sim.Histogram.create ()) in
  let svc_ph = Array.init cfg.phases (fun _ -> Sim.Histogram.create ()) in
  let ph_count = Array.make cfg.phases 0 in
  let ph_first = Array.make cfg.phases Sim.Time.zero in
  let ph_last = Array.make cfg.phases Sim.Time.zero in
  let ph_seen = Array.make cfg.phases false in
  (* Mirror the end-to-end histograms into the run's stats so the perf
     trajectory (BENCH_*.json) can track them across commits. *)
  let stats_resp = Sim.Stats.histogram ctx.Harness.stats "serve_response_ns" in
  let stats_svc = Sim.Stats.histogram ctx.Harness.stats "serve_service_ns" in
  (* Completion progress as a counter: the worker-starvation health
     rule watches its per-interval delta flatline while the queue-depth
     gauge below stays positive. *)
  let stats_completed = Sim.Stats.counter ctx.Harness.stats "serve_completed" in
  (* Observatory: per-op labeled request counters plus the live queue
     depth as a probe gauge (sampled at health/export ticks, pull not
     push — the enqueue path stays untouched). Registered here, which
     is this app's boot: before the generator and workers spawn. *)
  let ob_op op =
    Obs.Registry.counter ~name:"serve_requests" ~labels:[ ("app", "serving"); ("op", op) ] ()
  in
  let ob_gets = ob_op "get" and ob_sets = ob_op "set" in
  Obs.Registry.probe ~name:"serve_queue_depth"
    ~help:"requests waiting between arrival and dequeue"
    ~labels:[ ("app", "serving") ]
    (fun () -> Queue.length q);
  let base = Sim.Engine.now eng in
  let last_done = ref base in
  let phase_of idx = idx * cfg.phases / cfg.requests in
  let record p ~resp_ns ~svc_ns ~now =
    Sim.Histogram.add resp_all resp_ns;
    Sim.Histogram.add svc_all svc_ns;
    Sim.Histogram.add resp_ph.(p) resp_ns;
    Sim.Histogram.add svc_ph.(p) svc_ns;
    Sim.Histogram.add stats_resp resp_ns;
    Sim.Histogram.add stats_svc svc_ns;
    ph_count.(p) <- ph_count.(p) + 1;
    if not ph_seen.(p) then begin
      ph_seen.(p) <- true;
      ph_first.(p) <- now
    end;
    ph_last.(p) <- now
  in
  (* Generator: the schedule belongs to the arrival process alone. *)
  Sim.Engine.spawn eng ~name:"serve-gen" (fun () ->
      for idx = 0 to cfg.requests - 1 do
        let r = W.Stream.next stream in
        let intended = Sim.Time.add base r.W.Stream.arrival in
        Sim.Engine.sleep_until eng intended;
        Queue.push
          {
            intended;
            key = r.W.Stream.key;
            op = r.W.Stream.op;
            vsize = r.W.Stream.vsize;
            idx;
          }
          q;
        if Queue.length q > !max_queue then max_queue := Queue.length q;
        Sim.Condvar.signal cv
      done;
      closed := true;
      Sim.Condvar.broadcast cv);
  (* Workers: drain until the generator closes and the queue is dry.
     Each owns its buffers, as a Redis client connection does: a key
     buffer, a request buffer its SETs are filled into (a request may
     fault and yield mid-way, so workers cannot share either) and a
     reply buffer its GETs read into. The reply buffer starts at
     Redis's 16 KiB per-client output buffer and grows to the largest
     value read. *)
  for _ = 1 to cfg.workers do
    let value = Bytes.create max_vsize in
    let key = Bytes.create Redis_bench.key_bytes in
    let reply = ref (Bytes.create reply_buffer_bytes) in
    Sim.Engine.spawn eng ~name:"serve-worker" (fun () ->
        let rec loop () =
          Sim.Condvar.wait_for cv (fun () ->
              (not (Queue.is_empty q)) || !closed);
          if Queue.is_empty q then ()
          else begin
            let p = Queue.pop q in
            Sim.Condvar.wait_for free_cv (fun () ->
                not (Hashtbl.mem busy p.key));
            (* Claim must follow the wait_for predicate with no yield in
               between, or two workers can both see the key free. *)
            (Hashtbl.replace busy p.key () [@lint.atomic]);
            let start = m.Memif.now () in
            (match p.op with
            | W.Stream.Get -> (
                incr gets;
                Obs.Registry.cincr ob_gets;
                match Redis.get rds (Redis_bench.key_into key p.key) reply with
                | Some n ->
                    assert (Redis_bench.verify_value !reply ~len:n ~index:p.key)
                | None -> assert false)
            | W.Stream.Set ->
                incr sets;
                Obs.Registry.cincr ob_sets;
                Redis_bench.fill_value value ~len:p.vsize ~index:p.key;
                Redis.set rds ~key:(Redis_bench.key_into key p.key) ~value
                  ~len:p.vsize);
            m.Memif.flush ();
            (* Release and wakeup form one region: a yield between them
               would let a waiter re-check [busy] before the broadcast
               exists to wake it. *)
            ((Hashtbl.remove busy p.key;
              Sim.Condvar.broadcast free_cv)
            [@lint.atomic]);
            let now = m.Memif.now () in
            record (phase_of p.idx)
              ~resp_ns:(Int64.to_int (Sim.Time.sub now p.intended))
              ~svc_ns:(Int64.to_int (Sim.Time.sub now start))
              ~now;
            incr completed;
            Sim.Stats.cincr stats_completed;
            if Sim.Time.compare now !last_done > 0 then last_done := now;
            loop ()
          end
        in
        loop ();
        decr live_workers;
        if !live_workers = 0 then Sim.Condvar.broadcast done_cv)
  done;
  Sim.Condvar.wait_for done_cv (fun () -> !live_workers = 0);
  let duration = Sim.Time.sub !last_done base in
  let mk ~requests ~time ~kind h =
    Redis_bench.result_of_hist ~requests ~time ~kind h
  in
  let phases =
    List.init cfg.phases (fun p ->
        let time =
          if ph_seen.(p) then Sim.Time.sub ph_last.(p) ph_first.(p)
          else Sim.Time.zero
        in
        {
          phase_index = p;
          ph_response =
            mk ~requests:ph_count.(p) ~time ~kind:Redis_bench.Response_time
              resp_ph.(p);
          ph_service =
            mk ~requests:ph_count.(p) ~time ~kind:Redis_bench.Service_time
              svc_ph.(p);
        })
  in
  {
    offered_rps = scfg.W.Stream.rate_rps;
    achieved_rps =
      (let secs = Sim.Time.to_s duration in
       if !completed = 0 || secs <= 0. then 0.
       else float_of_int !completed /. secs);
    completed = !completed;
    gets = !gets;
    sets = !sets;
    duration;
    max_queue = !max_queue;
    response =
      mk ~requests:!completed ~time:duration ~kind:Redis_bench.Response_time
        resp_all;
    service =
      mk ~requests:!completed ~time:duration ~kind:Redis_bench.Service_time
        svc_all;
    phases;
  }
