type config = { local_mem_bytes : int; tcp : bool; prefetch_window : int }

let default_config =
  { local_mem_bytes = 64 * 1024 * 1024; tcp = true; prefetch_window = 16 }

let chunk_size = 4096
let offset_bits = 36
let offset_mask = Int64.sub (Int64.shift_left 1L offset_bits) 1L
let pending_cap_ns = 10_000

type cstate =
  | CLocal of Sim.Bigbuf.t
  | CRemote
  | CFetching of (unit -> unit) list ref (* waiters *)

type chunk = {
  len : int;
  craddr : int64;
  mutable data : cstate;
  mutable dirty : bool;
  mutable hot : bool;
}

type obj = {
  oid : int;
  size : int;
  chunks : chunk array;
  mutable last_chunk : int; (* sequential-stream detection *)
  mutable streak : int;
}

(* Deref/evacuation-path stats cells, resolved once at [boot]. *)
type hot_stats = {
  c_writebacks : Sim.Stats.counter;
  c_evictions : Sim.Stats.counter;
  c_prefetch_issued : Sim.Stats.counter;
  c_fetch_waits : Sim.Stats.counter;
  c_object_misses : Sim.Stats.counter;
  (* Observatory: AIFM's remote-fetch event is the object miss, so it
     feeds the cross-kernel kernel_major_faults family as the
     {system="aifm"} slice. *)
  ob_major_faults : Obs.Registry.counter;
}

type t = {
  eng : Sim.Engine.t;
  cfg : config;
  stats : Sim.Stats.t;
  hot : hot_stats;
  fabric : Rdma.Fabric.t;
  deref_qp : Rdma.Qp.t;
  prefetch_qps : Rdma.Qp.t array;
  evac_qp : Rdma.Qp.t;
  objects : (int, obj) Hashtbl.t;
  mutable next_oid : int;
  mutable next_raddr : int64;
  mutable used : int; (* resident payload bytes *)
  lru : (int * int) Queue.t; (* (oid, chunk index) eviction scan order *)
  queued : (int * int, unit) Hashtbl.t;
  evac_work : Sim.Condvar.t;
  mutable pending : int;
  mutable prefetch_rr : int;
  mutable running : bool;
}

let eng t = t.eng
let stats t = t.stats
let fabric t = t.fabric
let now t = Sim.Engine.now t.eng
let local_bytes t = t.used

let lru_push t oid ci =
  if not (Hashtbl.mem t.queued (oid, ci)) then begin
    Queue.push (oid, ci) t.lru;
    Hashtbl.replace t.queued (oid, ci) ()
  end

let high_water t = t.cfg.local_mem_bytes
let low_water t = t.cfg.local_mem_bytes * 9 / 10

(* Synchronous chunk store; true when the memory node now holds the
   chunk's current bytes. Dirty is cleared before the WRITE snapshots
   the chunk, so a store into it while the WRITE is on the wire
   re-dirties it and is noticed here instead of lost. A failed WRITE
   (every replica of the chunk's shard dead, or the wire's retry
   budget spent) reaches nothing: re-dirty for the store that never
   happened. *)
let write_back t c b =
  c.dirty <- false;
  let failed = ref false in
  Sim.Engine.suspend t.eng (fun wake ->
      Rdma.Qp.post_write t.evac_qp
        ~on_error:(fun () ->
          failed := true;
          wake ())
        ~segs:[ { Rdma.Qp.raddr = c.craddr; loff = 0; len = c.len } ]
        ~buf:b ~on_complete:wake);
  if !failed then c.dirty <- true else Sim.Stats.cincr t.hot.c_writebacks;
  not c.dirty

(* [budget] bounds the scan to one pass over the LRU plus one pop — a
   second-chance pass clears every hot bit within it — so chunks whose
   store fails cannot spin it. *)
let rec evacuate_one t ~budget =
  if budget <= 0 then false
  else
    match Queue.take_opt t.lru with
    | None -> false
    | Some (oid, ci) -> (
        Hashtbl.remove t.queued (oid, ci);
        match Hashtbl.find_opt t.objects oid with
        | None -> evacuate_one t ~budget:(budget - 1) (* freed *)
        | Some o -> (
            let c = o.chunks.(ci) in
            match c.data with
            | CRemote | CFetching _ -> evacuate_one t ~budget:(budget - 1)
            | CLocal b ->
                if c.hot then begin
                  c.hot <- false;
                  lru_push t oid ci;
                  evacuate_one t ~budget:(budget - 1)
                end
                else if c.dirty && not (write_back t c b) then begin
                  (* As Fastswap's evict_one: the remote copy is stale
                     (the store failed, or the chunk was written while
                     it was on the wire), so keep the chunk resident
                     and move on. *)
                  lru_push t oid ci;
                  evacuate_one t ~budget:(budget - 1)
                end
                else begin
                  c.data <- CRemote;
                  t.used <- t.used - c.len;
                  Sim.Stats.cincr t.hot.c_evictions;
                  true
                end))

let evacuate_one t = evacuate_one t ~budget:(Queue.length t.lru + 1)

let evacuator_fiber t () =
  while t.running do
    if t.used > high_water t then begin
      let progress = ref true in
      while t.used > low_water t && !progress do
        progress := evacuate_one t;
        Sim.Engine.sleep t.eng (Sim.Time.ns 150)
      done;
      if not !progress then Sim.Condvar.wait t.evac_work
    end
    else Sim.Condvar.wait t.evac_work
  done

let boot ~eng ~server (cfg : config) =
  let stats = Sim.Stats.create () in
  let extra_completion_delay =
    if cfg.tcp then Some Dilos.Params.tcp_emulation_delay else None
  in
  let fabric = Memnode.Server.connect server ~stats ?extra_completion_delay () in
  let t =
    {
      eng;
      cfg;
      stats;
      hot =
        {
          c_writebacks = Sim.Stats.counter stats "writebacks";
          c_evictions = Sim.Stats.counter stats "evictions";
          c_prefetch_issued = Sim.Stats.counter stats "prefetch_issued";
          c_fetch_waits = Sim.Stats.counter stats "fetch_waits";
          c_object_misses = Sim.Stats.counter stats "object_misses";
          ob_major_faults =
            Obs.Registry.counter ~name:"kernel_major_faults"
              ~labels:[ ("system", "aifm") ]
              ();
        };
      fabric;
      deref_qp = Rdma.Fabric.qp fabric ~name:"aifm.deref";
      prefetch_qps =
        Array.init 2 (fun i -> Rdma.Fabric.qp fabric ~name:(Printf.sprintf "aifm.pf%d" i));
      evac_qp = Rdma.Fabric.qp fabric ~name:"aifm.evac";
      objects = Hashtbl.create 1024;
      next_oid = 1;
      next_raddr = 0x1000L;
      used = 0;
      lru = Queue.create ();
      queued = Hashtbl.create 1024;
      evac_work = Sim.Condvar.create eng;
      pending = 0;
      prefetch_rr = 0;
      running = true;
    }
  in
  Sim.Engine.spawn eng ~name:"aifm.evacuator" (evacuator_fiber t);
  t

let shutdown t =
  t.running <- false;
  Sim.Condvar.broadcast t.evac_work

let quiesce _t = ()

let flush_pending t =
  if t.pending > 0 then begin
    let p = t.pending in
    t.pending <- 0;
    Sim.Engine.sleep t.eng (Sim.Time.ns p)
  end

let charge t ns =
  t.pending <- t.pending + ns;
  if t.pending >= pending_cap_ns then flush_pending t

let flush t ~core:_ = flush_pending t
let compute t ~core:_ ns = charge t ns

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)

let handle_of oid = Int64.shift_left (Int64.of_int oid) offset_bits

let decode t addr =
  let oid = Int64.to_int (Int64.shift_right_logical addr offset_bits) in
  let off = Int64.to_int (Int64.logand addr offset_mask) in
  match Hashtbl.find_opt t.objects oid with
  | Some o ->
      if off >= o.size then invalid_arg "Aifm: offset beyond object";
      (o, off)
  | None -> invalid_arg "Aifm: dangling handle"

let malloc t ~core:_ size =
  if size <= 0 then invalid_arg "Aifm.malloc: size <= 0";
  let oid = t.next_oid in
  t.next_oid <- oid + 1;
  let n_chunks = (size + chunk_size - 1) / chunk_size in
  (* Object construction, not the deref path: chunk descriptors live
     as long as the object, so per-malloc allocation is the point. *)
  let chunks =
    (Array.init [@lint.allow "hot-alloc"]) n_chunks (fun i ->
        let len = Int.min chunk_size (size - (i * chunk_size)) in
        {
          len;
          craddr = Int64.add t.next_raddr (Int64.of_int (i * chunk_size));
          (* Fresh objects materialize locally on first touch; their
             remote backing reads as zero until evacuated. *)
          data = CRemote;
          dirty = false;
          hot = false;
        })
  in
  t.next_raddr <- Int64.add t.next_raddr (Int64.of_int (n_chunks * chunk_size));
  Hashtbl.replace t.objects oid { oid; size; chunks; last_chunk = -1; streak = 0 };
  charge t 40;
  handle_of oid

let rec free t ~core addr =
  let o, off = decode t addr in
  if off <> 0 then invalid_arg "Aifm.free: not an allocation base";
  let fetching c =
    match c.data with CFetching w -> Some w | CLocal _ | CRemote -> None
  in
  match Array.find_map fetching o.chunks with
  | Some waiters ->
      (* A streaming prefetch is still on the wire: wait for it to
         land or be abandoned, then free what is there. *)
      Sim.Engine.suspend t.eng (fun wake -> waiters := wake :: !waiters);
      free t ~core addr
  | None ->
      Array.iter
        (fun c ->
          match c.data with
          | CLocal _ -> t.used <- t.used - c.len
          | CRemote | CFetching _ -> ())
        o.chunks;
      Hashtbl.remove t.objects o.oid;
      charge t 30

(* ------------------------------------------------------------------ *)
(* Miss handling and streaming prefetch                                *)

let install t o ci buf =
  let c = o.chunks.(ci) in
  (match c.data with
  | CFetching waiters ->
      c.data <- CLocal buf;
      t.used <- t.used + c.len;
      lru_push t o.oid ci;
      List.iter (fun wake -> wake ()) !waiters
  | CRemote ->
      c.data <- CLocal buf;
      t.used <- t.used + c.len;
      lru_push t o.oid ci
  | CLocal _ -> ());
  if t.used > high_water t then Sim.Condvar.broadcast t.evac_work

(* A fetch that failed permanently: back to [CRemote], and everyone
   parked on it re-dispatches (and re-faults). *)
let abandon_fetch c =
  match c.data with
  | CFetching waiters ->
      c.data <- CRemote;
      List.iter (fun wake -> wake ()) !waiters
  | CLocal _ | CRemote -> ()

let issue_prefetch t o ci =
  if ci < Array.length o.chunks then begin
    let c = o.chunks.(ci) in
    match c.data with
    | CLocal _ | CFetching _ -> ()
    | CRemote ->
        let waiters = ref [] in
        c.data <- CFetching waiters;
        let buf = Sim.Bigbuf.create c.len in
        let qp = t.prefetch_qps.(t.prefetch_rr) in
        t.prefetch_rr <- (t.prefetch_rr + 1) mod Array.length t.prefetch_qps;
        Sim.Stats.cincr t.hot.c_prefetch_issued;
        Rdma.Qp.post_read qp
          ~on_error:(fun () -> abandon_fetch c)
          ~segs:[ { Rdma.Qp.raddr = c.craddr; loff = 0; len = c.len } ]
          ~buf
          ~on_complete:(fun () -> install t o ci buf)
  end

let stream_detect t o ci =
  if ci = o.last_chunk + 1 then o.streak <- o.streak + 1
  else if ci <> o.last_chunk then o.streak <- 0;
  o.last_chunk <- ci;
  if o.streak >= 2 then
    for i = ci + 1 to ci + t.cfg.prefetch_window do
      issue_prefetch t o i
    done

(* Demand READ of a chunk already marked [CFetching], as Fastswap's
   major fault: a permanent failure abandons the fetch and re-fetches
   after a delay, and past [fault_refetch_max] attempts the chunk is
   declared lost — the run ends with [Page_lost], not an escaped
   [Rdma.Qp.Unreachable]. *)
let rec demand_fetch t o ci refetches =
  let c = o.chunks.(ci) in
  let buf = Sim.Bigbuf.create c.len in
  let failed = ref false in
  Sim.Engine.suspend t.eng (fun wake ->
      Rdma.Qp.post_read t.deref_qp
        ~on_error:(fun () ->
          failed := true;
          wake ())
        ~segs:[ { Rdma.Qp.raddr = c.craddr; loff = 0; len = c.len } ]
        ~buf ~on_complete:wake);
  if not !failed then install t o ci buf
  else begin
    abandon_fetch c;
    if refetches + 1 >= Dilos.Params.fault_refetch_max then
      raise
        (Dilos.Cpu.Page_lost
           (Int64.add (handle_of o.oid) (Int64.of_int (ci * chunk_size))));
    Sim.Engine.sleep t.eng (Sim.Time.ns Dilos.Params.fault_refetch_delay_ns);
    (* Another fiber may have fetched it meanwhile; the caller
       re-dispatches on whatever state the chunk is in. *)
    match c.data with
    | CRemote ->
        c.data <- CFetching (ref []);
        demand_fetch t o ci (refetches + 1)
    | CLocal _ | CFetching _ -> ()
  end

(* Returns the chunk's local bytes, fetching on a miss. *)
let rec chunk_bytes t o ci ~write =
  let c = o.chunks.(ci) in
  c.hot <- true;
  match c.data with
  | CLocal b ->
      if write && not c.dirty then c.dirty <- true;
      charge t Dilos.Params.mem_access_ns;
      (* [charge] may flush pending time and sleep; the evacuator can
         write the chunk back and drop it in that window, orphaning
         [b]. Only hand the buffer out if it is still installed. *)
      (match c.data with
      | CLocal b' when b' == b -> b
      | CLocal _ | CFetching _ | CRemote -> chunk_bytes t o ci ~write)
  | CFetching _ ->
      (* flush_pending may sleep; the fetch can complete during that
         sleep, so re-read the state before parking on the waiter
         list. *)
      flush_pending t;
      (match c.data with
      | CFetching waiters ->
          Sim.Stats.cincr t.hot.c_fetch_waits;
          Sim.Engine.suspend t.eng (fun wake -> waiters := wake :: !waiters)
      | CLocal _ | CRemote -> ());
      chunk_bytes t o ci ~write
  | CRemote ->
      flush_pending t;
      Sim.Stats.cincr t.hot.c_object_misses;
      Obs.Registry.cincr t.hot.ob_major_faults;
      Sim.Engine.sleep t.eng (Sim.Time.ns Dilos.Params.aifm_object_fault_sw_ns);
      c.data <- CFetching (ref []);
      stream_detect t o ci;
      demand_fetch t o ci 0;
      chunk_bytes t o ci ~write

(* Whole-chunk overwrite: no need to fetch the stale remote copy
   (AIFM's dirty-allocate path for full-object stores). *)
let rec chunk_full_write t o ci =
  let c = o.chunks.(ci) in
  c.hot <- true;
  match c.data with
  | CLocal b ->
      c.dirty <- true;
      charge t Dilos.Params.mem_access_ns;
      (* Same evacuation-during-flush hazard as [chunk_bytes]. *)
      (match c.data with
      | CLocal b' when b' == b -> b
      | CLocal _ | CFetching _ | CRemote -> chunk_full_write t o ci)
  | CFetching _ -> chunk_bytes t o ci ~write:true
  | CRemote ->
      let b = Sim.Bigbuf.create c.len (* zeroed *) in
      c.data <- CLocal b;
      c.dirty <- true;
      t.used <- t.used + c.len;
      lru_push t o.oid ci;
      if t.used > high_water t then Sim.Condvar.broadcast t.evac_work;
      (* Keep the stream detector informed so a sequentially written
         object stays recognized as a stream (partial writes at chunk
         boundaries then hit prefetched data). *)
      stream_detect t o ci;
      charge t 60;
      b

let locate t addr ~write =
  let o, off = decode t addr in
  (* The remoteable-pointer check AIFM pays on every dereference. *)
  charge t Dilos.Params.aifm_deref_check_ns;
  let ci = off / chunk_size in
  let coff = off mod chunk_size in
  let b = chunk_bytes t o ci ~write in
  (b, coff)

let check_span c off size =
  if off + size > Sim.Bigbuf.length c then
    invalid_arg "Aifm: scalar access straddles a chunk boundary"

let read_u8 t ~core addr =
  ignore core;
  let b, off = locate t addr ~write:false in
  Sim.Bigbuf.get_u8 b off

let read_u16 t ~core addr =
  ignore core;
  let b, off = locate t addr ~write:false in
  check_span b off 2;
  Sim.Bigbuf.get_u16_le b off

let read_u32 t ~core addr =
  ignore core;
  let b, off = locate t addr ~write:false in
  check_span b off 4;
  Sim.Bigbuf.get_u32_le b off

let read_u64 t ~core addr =
  ignore core;
  let b, off = locate t addr ~write:false in
  check_span b off 8;
  Sim.Bigbuf.get_u64_le b off

let write_u8 t ~core addr v =
  ignore core;
  let b, off = locate t addr ~write:true in
  Sim.Bigbuf.set_u8 b off (v land 0xFF)

let write_u16 t ~core addr v =
  ignore core;
  let b, off = locate t addr ~write:true in
  check_span b off 2;
  Sim.Bigbuf.set_u16_le b off (v land 0xFFFF)

let write_u32 t ~core addr v =
  ignore core;
  let b, off = locate t addr ~write:true in
  check_span b off 4;
  Sim.Bigbuf.set_u32_le b off v

let write_u64 t ~core addr v =
  ignore core;
  let b, off = locate t addr ~write:true in
  check_span b off 8;
  Sim.Bigbuf.set_u64_le b off v

let bulk t addr buf off len ~write =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Aifm: bulk access outside buffer";
  let o, start_off = decode t addr in
  charge t Dilos.Params.aifm_deref_check_ns;
  let pos = ref start_off and done_ = ref 0 in
  while !done_ < len do
    let ci = !pos / chunk_size in
    let coff = !pos mod chunk_size in
    let c = o.chunks.(ci) in
    let n = Int.min (len - !done_) (c.len - coff) in
    let b =
      if write && coff = 0 && n = c.len then chunk_full_write t o ci
      else chunk_bytes t o ci ~write
    in
    if write then
      Sim.Bigbuf.blit_from_bytes buf ~src_off:(off + !done_) b ~dst_off:coff
        ~len:n
    else Sim.Bigbuf.blit_to_bytes b ~src_off:coff buf ~dst_off:(off + !done_) ~len:n;
    charge t (n / 64 * Dilos.Params.mem_access_ns);
    pos := !pos + n;
    done_ := !done_ + n
  done

let read_bytes t ~core addr buf off len =
  ignore core;
  bulk t addr buf off len ~write:false

let write_bytes t ~core addr buf off len =
  ignore core;
  bulk t addr buf off len ~write:true

let touch t ~core addr =
  ignore core;
  ignore (locate t addr ~write:false)

let is_local t addr =
  let o, off = decode t addr in
  match o.chunks.(off / chunk_size).data with
  | CLocal _ -> true
  | CRemote | CFetching _ -> false
