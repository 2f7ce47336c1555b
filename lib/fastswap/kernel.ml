type config = { local_mem_bytes : int; cores : int; readahead : bool }

let default_config =
  { local_mem_bytes = 64 * 1024 * 1024; cores = 1; readahead = true }

let cluster = 8 (* Linux page_cluster = 3 -> 2^3 pages per readahead *)

(* Trace handles, resolved once at module init (Stats handle
   discipline: fault/reclaim paths never hash a category name). *)
let cat_swap = Trace.category "swap"
let trk_reclaim = Trace.track "reclaim"

(* Fault/reclaim-path stats cells, resolved once at [boot]. *)
type hot_stats = {
  mf : Dilos.Major_fault.t;
  wb_bound : Dilos.Major_fault.writebacks;
  c_minor_faults : Sim.Stats.counter;
  c_evictions : Sim.Stats.counter;
  c_writebacks : Sim.Stats.counter;
  c_ra_dropped : Sim.Stats.counter;
  c_ra_aborted : Sim.Stats.counter;
  c_readahead_pages : Sim.Stats.counter;
  c_direct_reclaims : Sim.Stats.counter;
  c_ph_swapcache : Sim.Stats.counter;
  c_ph_other : Sim.Stats.counter;
  h_minor_fault : Sim.Histogram.t;
}

type t = {
  eng : Sim.Engine.t;
  cfg : config;
  stats : Sim.Stats.t;
  hot : hot_stats;
  fabric : Rdma.Fabric.t;
  aspace : Vmem.Address_space.t;
  pt : Vmem.Page_table.t;
  frames : Vmem.Frame.t;
  slab : Sim.Bigbuf.t; (* the frame pool's backing slab, cached *)
  cache : Swap_cache.t;
  qps : Rdma.Qp.t array; (* one per core: faults + readahead share it *)
  lru : int Queue.t; (* mapped-page reclaim scan order *)
  queued : unit Sim.Int_table.t;
  swap_backed : unit Sim.Int_table.t;
      (* pages that came back from swap and still hold a swap slot:
         their first re-dirtying pays the slot-release/wp cost *)
  io_done : Sim.Condvar.t;
  frames_avail : Sim.Condvar.t;
  reclaim_work : Sim.Condvar.t;
  mutable cpus : Dilos.Cpu.t array;
  mutable running : bool;
  mutable reclaim_counter : int;
  mutable ra_window : int; (* adaptive cluster readahead window (Linux
                              VMA readahead: grows on hits, shrinks
                              when readahead pages go unused) *)
  mutable heap : Dilos.Ddc_alloc.t option; (* glibc stand-in *)
  low : int;
  high : int;
}

let eng t = t.eng
let stats t = t.stats
let fabric t = t.fabric
let now t = Sim.Engine.now t.eng
let free_frames t = Vmem.Frame.free_count t.frames
let swap_cache_size t = Swap_cache.size t.cache

let invalidate t vpn = Dilos.Cpu.invalidate t.cpus vpn

let lru_push t vpn =
  if not (Sim.Int_table.mem t.queued vpn) then begin
    Queue.push vpn t.lru;
    Sim.Int_table.replace t.queued vpn ()
  end

(* The one-page transfer between [vpn]'s remote copy and [frame]. *)
let page_segs t vpn frame =
  [
    {
      Rdma.Qp.raddr = Vmem.Addr.base vpn;
      loff = Vmem.Frame.offset t.frames frame;
      len = Vmem.Addr.page_size;
    };
  ]

(* One reclaim step over the unified LRU: a popped VPN may be a
   mapped page or an unconsumed swap-cache (readahead) page; both age
   in insertion order, approximating the kernel's inactive list. Dirty
   victims are swapped out with a synchronous frontswap store — cheap
   from the offload thread, expensive when this runs as direct reclaim
   in a fault. A store that fails for good (every replica of the
   page's shard dead) leaves the page dirty and resident, and the scan
   moves on. Returns [true] if a frame was freed. *)
let rec evict_one t ~qp ~budget =
  if budget = 0 then false
  else
    match Queue.take_opt t.lru with
    | None -> false
    | Some vpn -> (
        Sim.Int_table.remove t.queued vpn;
        match Swap_cache.find t.cache vpn with
        | Some e when not e.Swap_cache.io_inflight ->
            (* Never-used readahead page: clean, just drop it. *)
            Swap_cache.remove t.cache vpn;
            Vmem.Frame.free t.frames e.Swap_cache.frame;
            Sim.Stats.cincr t.hot.c_evictions;
            Sim.Stats.cincr t.hot.c_ra_dropped;
            t.ra_window <- Int.max 1 (t.ra_window / 2);
            Sim.Condvar.broadcast t.frames_avail;
            true
        | Some _ ->
            (* Swap-in still in flight; not reclaimable yet. *)
            lru_push t vpn;
            evict_one t ~qp ~budget:(budget - 1)
        | None -> (
            let pte = Vmem.Page_table.get t.pt vpn in
            match Vmem.Pte.tag pte with
            | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Action
            | Vmem.Pte.Fetching ->
                evict_one t ~qp ~budget (* stale entry, free scan *)
            | Vmem.Pte.Local ->
                if Vmem.Pte.accessed pte then begin
                  (* Inactive-list second chance. *)
                  Vmem.Page_table.update t.pt vpn Vmem.Pte.clear_accessed;
                  invalidate t vpn;
                  lru_push t vpn;
                  evict_one t ~qp ~budget:(budget - 1)
                end
                else begin
                  let frame = Vmem.Pte.frame pte in
                  (if Vmem.Pte.dirty pte then begin
                     (* Swap-out: synchronous frontswap store. Clear
                        dirty and shoot down the TLB before the store
                        snapshots the page, so a store racing with the
                        swap-out re-dirties the PTE and is noticed
                        below instead of silently lost. *)
                     Vmem.Page_table.update t.pt vpn Vmem.Pte.clear_dirty;
                     invalidate t vpn;
                     let t0 = Sim.Engine.now t.eng in
                     let failed = ref false in
                     Sim.Engine.suspend t.eng (fun wake ->
                         Rdma.Qp.post_write qp
                           ~on_error:(fun () ->
                             failed := true;
                             wake ())
                           ~segs:(page_segs t vpn frame) ~buf:t.slab
                           ~on_complete:wake);
                     Trace.complete cat_swap ~name:"swap_out" ~track:trk_reclaim
                       ~t0 ();
                     if not !failed then Sim.Stats.cincr t.hot.c_writebacks
                     else begin
                       (* Nothing reached the memory node: re-dirty for
                          the store that never happened. *)
                       if
                         Vmem.Pte.tag (Vmem.Page_table.get t.pt vpn)
                         = Vmem.Pte.Local
                       then Vmem.Page_table.update t.pt vpn Vmem.Pte.set_dirty;
                       Dilos.Major_fault.writeback_failed t.hot.wb_bound vpn
                     end
                   end);
                  (* Check-then-act: the PTE re-read and the unmap it
                     justifies must see no fiber interleaving (the PR 4
                     lost-update race). [@lint.atomic] has R10 verify
                     nothing in the region can yield; the recursive
                     retry stays outside — it swaps out and yields. *)
                  let freed =
                    (let pte' = Vmem.Page_table.get t.pt vpn in
                     if
                       Vmem.Pte.tag pte' = Vmem.Pte.Local
                       && not (Vmem.Pte.dirty pte')
                     then begin
                       Vmem.Page_table.set t.pt vpn (Vmem.Pte.make_remote ());
                       invalidate t vpn;
                       Sim.Int_table.remove t.swap_backed vpn;
                       Vmem.Frame.free t.frames frame;
                       Sim.Stats.cincr t.hot.c_evictions;
                       Sim.Condvar.broadcast t.frames_avail;
                       true
                     end
                     else false)
                    [@lint.atomic]
                  in
                  if freed then true
                  else begin
                    (* Re-dirtied while the store was on the wire: the
                       remote copy is already stale, keep the page
                       resident and move on. *)
                    lru_push t vpn;
                    evict_one t ~qp ~budget:(budget - 1)
                  end
                end))

let evict_one t ~qp = evict_one t ~qp ~budget:(Queue.length t.lru + 1)

(* Fastswap's dedicated reclaim kernel thread. *)
let offload_fiber t () =
  while t.running do
    if Vmem.Frame.free_count t.frames < t.low then begin
      let progress = ref true in
      while Vmem.Frame.free_count t.frames < t.high && !progress do
        (* Swap-outs share the paging QP: frontswap has one RDMA
           path, so reclaim writes delay demand fetches (the
           head-of-line blocking DiLOS's per-module queues avoid). *)
        progress := evict_one t ~qp:t.qps.(0);
        Sim.Engine.sleep t.eng (Sim.Time.ns 200)
      done
    end
    else Sim.Condvar.wait t.reclaim_work
  done

let shutdown t =
  t.running <- false;
  Sim.Condvar.broadcast t.reclaim_work

let quiesce _t = ()

let cpu t ~core =
  if core < 0 || core >= Array.length t.cpus then invalid_arg "Fastswap: bad core";
  t.cpus.(core)

(* Allocate a frame in fault context: on exhaustion, either this fault
   draws the short straw and does direct reclaim, or it parks on the
   offload thread. The split follows Fig. 1's observation that most —
   but not all — reclamation is hidden. *)
let direct_or_offloaded t =
  t.reclaim_counter <- t.reclaim_counter + 1;
  float_of_int (t.reclaim_counter mod 100) /. 100.
  >= Dilos.Params.fastswap_reclaim_offload_fraction

let direct_reclaim t cs =
  Sim.Stats.cincr t.hot.c_direct_reclaims;
  Dilos.Major_fault.reclaimed t.hot.mf Dilos.Params.fastswap_reclaim_direct_ns;
  Sim.Engine.sleep t.eng (Sim.Time.ns Dilos.Params.fastswap_reclaim_direct_ns);
  ignore (evict_one t ~qp:t.qps.((Dilos.Cpu.id cs)))

let alloc_frame_fault t cs =
  match Vmem.Frame.alloc t.frames with
  | Some f ->
      (* Under memory pressure, a share of faults still performs the
         non-offloadable part of reclamation inline (Fig. 1: ~29% of
         the average fault even with Fastswap's offloading). *)
      if Vmem.Frame.free_count t.frames < 2 * t.high then begin
        Sim.Condvar.broadcast t.reclaim_work;
        if direct_or_offloaded t then direct_reclaim t cs
      end;
      f
  | None ->
      let rec acquire () =
        Sim.Condvar.broadcast t.reclaim_work;
        if direct_or_offloaded t then direct_reclaim t cs;
        match Vmem.Frame.alloc t.frames with
        | Some f -> f
        | None ->
            Sim.Condvar.wait t.frames_avail;
            (match Vmem.Frame.alloc t.frames with
            | Some f -> f
            | None -> acquire ())
      in
      acquire ()

(* Readahead is speculative: on permanent failure drop the swap-cache
   entry (inside the callback, before any waiter runs, so nobody maps
   a garbage frame) and let a demand fault refetch the page. *)
let ra_page_error t vpn e =
  e.Swap_cache.io_inflight <- false;
  (match Swap_cache.find t.cache vpn with
  | Some e' when e' == e ->
      Swap_cache.remove t.cache vpn;
      Vmem.Frame.free t.frames e.Swap_cache.frame;
      Sim.Stats.cincr t.hot.c_ra_aborted;
      Sim.Condvar.broadcast t.frames_avail
  | Some _ | None -> ());
  Sim.Condvar.broadcast t.io_done

let swapin_cluster t cs vpn_fault =
  (* Aligned cluster readahead: fetch the 8-page cluster containing
     the fault. The faulted page's IO is posted first; the rest queue
     behind it on the same QP. *)
  let qp = t.qps.((Dilos.Cpu.id cs)) in
  let win = t.ra_window in
  let start = vpn_fault land lnot (win - 1) in
  (* Each surviving page gets its swap-cache entry and its one-page
     WR in turn; the window is then announced as one chain with a
     single doorbell. Posting emits no trace event, so the doorbell's
     bookkeeping can follow the WRs. *)
  if t.cfg.readahead && win > 1 then begin
    let n = ref 0 in
    for vpn = start to start + win - 1 do
      let pte = Vmem.Page_table.get t.pt vpn in
      if
        vpn <> vpn_fault
        && Vmem.Pte.tag pte = Vmem.Pte.Remote
        && (not (Swap_cache.mem t.cache vpn))
        && Vmem.Frame.free_count t.frames > 1
      then
        match Vmem.Frame.alloc t.frames with
        | None -> ()
        | Some frame ->
            let e = { Swap_cache.frame; io_inflight = true } in
            Swap_cache.insert t.cache vpn e;
            lru_push t vpn;
            Sim.Stats.cincr t.hot.c_readahead_pages;
            Rdma.Qp.post_read
              ~on_error:(fun () -> ra_page_error t vpn e)
              qp
              ~segs:(page_segs t vpn frame)
              ~buf:t.slab
              ~on_complete:(fun () ->
                e.Swap_cache.io_inflight <- false;
                Sim.Condvar.broadcast t.io_done);
            incr n
    done;
    let n = !n in
    if n > 0 then begin
      if Trace.enabled cat_swap then
        Trace.instant cat_swap ~name:"readahead" ~track:(Dilos.Cpu.track cs)
          ~args:[ ("vpn", Trace.I vpn_fault); ("pages", Trace.I n) ]
          ();
      Rdma.Qp.note_read_batch qp ~wrs:n
    end
  end

(* Map a swap-cache entry whose IO has finished. *)
let map_from_cache t vpn entry =
  Swap_cache.remove t.cache vpn;
  Vmem.Page_table.set t.pt vpn
    (Vmem.Pte.make_local ~frame:entry.Swap_cache.frame ~writable:true);
  Sim.Int_table.replace t.swap_backed vpn ();
  lru_push t vpn

let rec major_fault t cs vpn refetches =
  let t_start = Sim.Engine.now t.eng in
  Dilos.Major_fault.count t.hot.mf;
  (* Swap-cache management: radix tree insertion, swap slot lookup,
     cgroup charging... *)
  Sim.Engine.sleep t.eng (Sim.Time.ns Dilos.Params.fastswap_swapcache_ns);
  let alloc_t0 = Sim.Engine.now t.eng in
  let frame = alloc_frame_fault t cs in
  Sim.Engine.sleep t.eng (Sim.Time.ns Dilos.Params.fastswap_page_alloc_ns);
  let alloc_spent =
    Int64.to_int (Sim.Time.sub (Sim.Engine.now t.eng) alloc_t0)
  in
  if Swap_cache.mem t.cache vpn || Vmem.Pte.tag (Vmem.Page_table.get t.pt vpn) = Vmem.Pte.Local
  then begin
    (* Lost the race while sleeping/allocating: another core brought
       the page in. Release our frame and retry through the normal
       dispatch. *)
    Vmem.Frame.free t.frames frame;
    fault t cs vpn 0
  end
  else begin
  let e = { Swap_cache.frame; io_inflight = true } in
  Swap_cache.insert t.cache vpn e;
  let fetch_t0 = Sim.Engine.now t.eng in
  let waiter = ref None in
  let failed = ref false in
  let fa = Dilos.Major_fault.fetch_attrib t.hot.mf in
  Rdma.Qp.post_read
    ?fa
    ~on_error:(fun () ->
      (* Permanent fetch failure: tear the swap-cache entry down inside
         the callback — before any waiter runs — so no minor fault can
         map the garbage frame. This fault (and any minor-fault
         waiters) then re-enter the dispatch and fault the page again
         from scratch. *)
      failed := true;
      e.Swap_cache.io_inflight <- false;
      (match Swap_cache.find t.cache vpn with
      | Some e' when e' == e ->
          Swap_cache.remove t.cache vpn;
          Vmem.Frame.free t.frames frame;
          Sim.Condvar.broadcast t.frames_avail
      | Some _ | None -> ());
      (match !waiter with Some wake -> wake () | None -> ());
      Sim.Condvar.broadcast t.io_done)
    t.qps.((Dilos.Cpu.id cs))
    ~segs:(page_segs t vpn frame)
    ~buf:t.slab
    ~on_complete:(fun () ->
      e.Swap_cache.io_inflight <- false;
      (match !waiter with Some wake -> wake () | None -> ());
      Sim.Condvar.broadcast t.io_done);
  swapin_cluster t cs vpn;
  if e.Swap_cache.io_inflight then
    Sim.Engine.suspend t.eng (fun wake -> waiter := Some wake);
  if !failed then begin
    Dilos.Major_fault.retried t.hot.mf;
    (* Bounded re-fault: past the budget the page is declared lost
       (all replicas of its shard dead) rather than spinning. *)
    if refetches + 1 >= Dilos.Params.fault_refetch_max then
      raise (Dilos.Cpu.Page_lost (Vmem.Addr.base vpn));
    Sim.Engine.sleep t.eng (Sim.Time.ns Dilos.Params.fault_refetch_delay_ns);
    fault t cs vpn (refetches + 1)
  end
  else begin
  let fetch_end = Sim.Engine.now t.eng in
  let fetch_ns = Int64.to_int (Sim.Time.sub fetch_end fetch_t0) in
  Sim.Engine.sleep t.eng (Sim.Time.ns Dilos.Params.fastswap_other_ns);
  (* Re-find the entry: while we slept it may have been consumed by a
     minor fault or reclaimed (and even replaced by a fresh fetch). *)
  (match Swap_cache.find t.cache vpn with
  | Some e' when e' == e -> map_from_cache t vpn e
  | Some _ | None -> ());
  Dilos.Major_fault.record t.hot.mf
    ~total_ns:(Int64.to_int (Sim.Time.sub (Sim.Engine.now t.eng) t_start))
    ~alloc_ns:(Int.min alloc_spent Dilos.Params.fastswap_page_alloc_ns)
    ~fetch_ns fa;
  Sim.Stats.cadd t.hot.c_ph_swapcache Dilos.Params.fastswap_swapcache_ns;
  Sim.Stats.cadd t.hot.c_ph_other Dilos.Params.fastswap_other_ns;
  if Trace.enabled cat_swap then begin
    let t_end = Sim.Engine.now t.eng in
    Trace.complete cat_swap ~name:"fetch_window" ~track:(Dilos.Cpu.track cs) ~t0:fetch_t0
      ~t1:fetch_end ();
    Trace.complete cat_swap ~name:"swap_in" ~track:(Dilos.Cpu.track cs) ~t0:t_start ~t1:t_end
      ~args:[ ("vpn", Trace.I vpn); ("fetch_ns", Trace.I fetch_ns) ]
      ()
  end
  end
  end

(* The fault hook of [Dilos.Cpu] (with [refetches = 0]), run after
   exception delivery. *)
and fault t cs vpn refetches =
  let pte = Vmem.Page_table.get t.pt vpn in
  match Vmem.Pte.tag pte with
  | Vmem.Pte.Local -> ()
  | Vmem.Pte.Fetching | Vmem.Pte.Action -> assert false (* DiLOS-only tags *)
  | Vmem.Pte.Unmapped -> (
      match Vmem.Address_space.find t.aspace (Vmem.Addr.base vpn) with
      | None -> raise (Dilos.Cpu.Segmentation_fault (Vmem.Addr.base vpn))
      | Some _ ->
          let frame = alloc_frame_fault t cs in
          Sim.Engine.sleep t.eng (Sim.Time.ns Dilos.Params.fastswap_page_alloc_ns);
          if Vmem.Page_table.get t.pt vpn <> Vmem.Pte.zero then
            Vmem.Frame.free t.frames frame
          else begin
            (* The one path that must deliver an actually-zero page
               (Frame.alloc recycles frames dirty). *)
            Vmem.Frame.fill_page t.frames frame '\000';
            Vmem.Page_table.set t.pt vpn (Vmem.Pte.make_local ~frame ~writable:true);
            lru_push t vpn;
            Dilos.Major_fault.zero_filled t.hot.mf
          end)
  | Vmem.Pte.Remote -> (
      match Swap_cache.find t.cache vpn with
      | Some e ->
          (* Minor fault: page already in the swap cache. *)
          Sim.Stats.cincr t.hot.c_minor_faults;
          t.ra_window <- Int.min cluster (t.ra_window * 2);
          let t0 = Sim.Engine.now t.eng in
          Sim.Engine.sleep t.eng
            (Sim.Time.ns
               (Dilos.Params.fastswap_minor_fault_ns - Vmem.Mmu.exception_ns));
          if e.Swap_cache.io_inflight then
            Sim.Condvar.wait_for t.io_done (fun () ->
                not e.Swap_cache.io_inflight);
          (* While we slept, the entry may have been consumed by
             another core or reclaimed and replaced; only map if it is
             still exactly ours. *)
          (match Swap_cache.find t.cache vpn with
          | Some e' when e' == e -> map_from_cache t vpn e
          | Some _ | None -> ());
          if Trace.enabled cat_swap then
            Trace.complete cat_swap ~name:"swap_cache_hit" ~track:(Dilos.Cpu.track cs) ~t0
              ~args:[ ("vpn", Trace.I vpn) ]
              ();
          Sim.Histogram.add t.hot.h_minor_fault
            (Int64.to_int (Sim.Time.sub (Sim.Engine.now t.eng) t0)
            + Vmem.Mmu.exception_ns)
      | None -> major_fault t cs vpn refetches)

(* Dirtying a page that came back from swap releases its swap slot
   and goes through write-protect handling; pages that never swapped
   pay nothing extra (see Params.fastswap_dirty_write_ns). *)
let charge_dirtying t cs vpn =
  if Sim.Int_table.mem t.swap_backed vpn then begin
    Sim.Int_table.remove t.swap_backed vpn;
    Dilos.Cpu.charge cs Dilos.Params.fastswap_dirty_write_ns
  end

let boot ~eng ~server (cfg : config) =
  if cfg.cores <= 0 then invalid_arg "Fastswap.boot: cores <= 0";
  let stats = Sim.Stats.create () in
  let fabric = Memnode.Server.connect server ~stats () in
  let frames =
    Vmem.Frame.create
      ~frames:(Int.max 32 (cfg.local_mem_bytes / Vmem.Addr.page_size))
  in
  let total = Vmem.Frame.total frames in
  let hot =
    {
      mf = Dilos.Major_fault.create ~system:"fastswap" stats;
      wb_bound = Dilos.Major_fault.writebacks stats;
      c_minor_faults = Sim.Stats.counter stats "minor_faults";
      c_evictions = Sim.Stats.counter stats "evictions";
      c_writebacks = Sim.Stats.counter stats "writebacks";
      c_ra_dropped = Sim.Stats.counter stats "ra_dropped";
      c_ra_aborted = Sim.Stats.counter stats "ra_aborted";
      c_readahead_pages = Sim.Stats.counter stats "readahead_pages";
      c_direct_reclaims = Sim.Stats.counter stats "direct_reclaims";
      c_ph_swapcache = Sim.Stats.counter stats "ph_swapcache_ns";
      c_ph_other = Sim.Stats.counter stats "ph_other_ns";
      h_minor_fault = Sim.Stats.histogram stats "minor_fault_ns";
    }
  in
  let t =
    {
      eng;
      cfg;
      stats;
      hot;
      fabric;
      aspace = Vmem.Address_space.create ();
      pt = Vmem.Page_table.create ();
      frames;
      slab = Vmem.Frame.slab frames;
      cache = Swap_cache.create ();
      qps =
        Array.init cfg.cores (fun i ->
            Rdma.Fabric.qp fabric ~name:(Printf.sprintf "swap.%d" i));
      lru = Queue.create ();
      queued = Sim.Int_table.create 1024;
      swap_backed = Sim.Int_table.create 1024;
      io_done = Sim.Condvar.create eng;
      frames_avail = Sim.Condvar.create eng;
      reclaim_work = Sim.Condvar.create eng;
      cpus = [||];
      running = true;
      reclaim_counter = 0;
      ra_window = 2;
      heap = None;
      low = Int.max 4 (total / 50);
      high = Int.max 24 (total / 25);
    }
  in
  t.cpus <-
    Array.init cfg.cores
      (Dilos.Cpu.create ~eng ~pt:t.pt ~frames ~fault:(fun cs vpn -> fault t cs vpn 0)
         ~dirtied:(charge_dirtying t) ~first_store:(charge_dirtying t));
  Sim.Engine.spawn eng ~name:"fastswap.offload" (offload_fiber t);
  t

include Dilos.Cpu.Accessors (struct
  type k = t

  let cpu = cpu
end)

let mmap t ~len ?name () = Vmem.Address_space.mmap t.aspace ~len ~ddc:true ?name ()

let munmap t base =
  let vma = Vmem.Address_space.munmap t.aspace base in
  let vpn0 = Vmem.Addr.vpn vma.Vmem.Address_space.base in
  let count = Int64.to_int (Int64.div vma.Vmem.Address_space.len 4096L) in
  Vmem.Page_table.iter_range t.pt ~vpn:vpn0 ~count (fun vpn pte ->
      (match Swap_cache.find t.cache vpn with
      | Some e when not e.Swap_cache.io_inflight ->
          Swap_cache.remove t.cache vpn;
          Vmem.Frame.free t.frames e.Swap_cache.frame
      | Some _ -> invalid_arg "Fastswap.munmap: swap-in in flight"
      | None -> ());
      match Vmem.Pte.tag pte with
      | Vmem.Pte.Local ->
          Vmem.Frame.free t.frames (Vmem.Pte.frame pte);
          Vmem.Page_table.set t.pt vpn Vmem.Pte.zero;
          invalidate t vpn
      | Vmem.Pte.Remote -> Vmem.Page_table.set t.pt vpn Vmem.Pte.zero
      | Vmem.Pte.Action | Vmem.Pte.Fetching -> assert false
      | Vmem.Pte.Unmapped -> ())

(* glibc-malloc stand-in: the same slab/span allocator DiLOS uses,
   minus the guided-paging hooks — small objects pack into pages, so
   Fastswap's heap density matches DiLOS's (only the paging path
   differs). *)
let heap_of t =
  match t.heap with
  | Some h -> h
  | None ->
      let h =
        Dilos.Ddc_alloc.create
          ~mmap:(fun len -> mmap t ~len ~name:"heap" ())
          ()
      in
      t.heap <- Some h;
      h

let malloc t ~core size =
  Dilos.Cpu.charge (cpu t ~core) 30;
  Dilos.Ddc_alloc.malloc (heap_of t) size

let free t ~core addr =
  Dilos.Cpu.charge (cpu t ~core) 25;
  Dilos.Ddc_alloc.free (heap_of t)
    ~write_link:(fun a -> write_u64 t ~core a 0xDEADBEEFL)
    addr
