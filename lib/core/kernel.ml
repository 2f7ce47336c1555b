type prefetch_kind = No_prefetch | Readahead | Trend_based

type config = {
  local_mem_bytes : int;
  cores : int;
  prefetch : prefetch_kind;
  guided_paging : bool;
  tcp_emulation : bool;
}

let default_config =
  {
    local_mem_bytes = 64 * 1024 * 1024;
    cores = 1;
    prefetch = Readahead;
    guided_paging = false;
    tcp_emulation = false;
  }

(* Trace handles, resolved once at module init (mirrors the Stats
   handle discipline: the fault path never hashes a category name). *)
let cat_fault = Trace.category "fault"
let cat_prefetch = Trace.category "prefetch"
let trk_prefetch = Trace.track "prefetch"

(* Stats cells the fault path touches, resolved once at [boot] so a
   fault never hashes a counter name (see Sim.Stats handle API). *)
type hot_stats = {
  mf : Major_fault.t;
  c_fetch_waits : Sim.Stats.counter;
  c_prefetch_issued : Sim.Stats.counter;
  c_subpage_fetches : Sim.Stats.counter;
  c_subpage_bytes : Sim.Stats.counter;
  c_prefetch_aborted : Sim.Stats.counter;
  c_ph_pte : Sim.Stats.counter;
  h_fetch_wait : Sim.Histogram.t;
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
  pm : Page_manager.t;
  comm : Comm.t;
  tracker : Hit_tracker.t;
  prefetcher : Prefetcher.t;
  mutable prefetch_guide : Guide.prefetch_guide option;
  alloc : Ddc_alloc.t;
  loader : Loader.t;
  mapping_changed : Sim.Condvar.t;
  mutable cpus : Cpu.t array;
  prefetch_low : int; (* shed prefetches below this many free frames *)
}

let eng t = t.eng
let stats t = t.stats
let fabric t = t.fabric
let loader t = t.loader
let config t = t.cfg
let now t = Sim.Engine.now t.eng
let allocator t = t.alloc
let free_frames t = Page_manager.free_frames t.pm
let page_tag t addr = Vmem.Pte.tag (Vmem.Page_table.get t.pt (Vmem.Addr.vpn addr))
let quiesce t = Page_manager.quiesce t.pm

let cpu t ~core =
  if core < 0 || core >= Array.length t.cpus then invalid_arg "Kernel: bad core";
  t.cpus.(core)

let shutdown t = Page_manager.stop t.pm
let set_prefetch_guide t g = t.prefetch_guide <- g

(* ------------------------------------------------------------------ *)
(* Page fault handling                                                 *)

(* READ segments of an [Action] page's logged vector. *)
let action_segs t ~payload ~base ~foff =
  Writeback.segs ~base ~foff
    (Some (Writeback.vector_segments (Page_manager.writeback t.pm) ~payload))

(* Shift decoded segs by a frame's slab offset (a top-level recursion:
   a [List.map] closure would allocate per fault). *)
let rec rebase_segs foff = function
  | [] -> []
  | (s : Rdma.Qp.seg) :: rest -> { s with loff = s.loff + foff } :: rebase_segs foff rest

let map_fetched t vpn frame =
  Vmem.Page_table.set t.pt vpn (Vmem.Pte.make_local ~frame ~writable:true);
  Page_manager.note_mapped t.pm vpn;
  Sim.Condvar.broadcast t.mapping_changed

(* A prefetch candidate that survived [prepare_prefetch]: one READ
   WR — a whole page or an Action-vector scatter list — landing at its
   frame's slab offset. *)
type pf_wr = {
  segs : Rdma.Qp.seg list;
  on_complete : unit -> unit;
  on_error : unit -> unit;
}

let prefetch_finish t ~flow ~p_t0 vpn frame =
  map_fetched t vpn frame;
  Hit_tracker.note_prefetched t.tracker vpn;
  if Trace.enabled cat_prefetch then
    Trace.complete cat_prefetch ~name:"prefetch" ~track:trk_prefetch ~t0:p_t0
      ~async:true ~flow_in:flow
      ~args:[ ("vpn", Trace.I vpn) ]
      ()

(* Prefetch is opportunistic: on permanent RDMA failure just undo the
   transition — Fetching goes back to a plain Remote (a full-page
   refetch is always correct; any consumed Action vector only skipped
   bytes the app never reads) and the frame returns to the pool so
   nobody deadlocks waiting on it. A later demand fault fetches the
   page for real. *)
let prefetch_abort t vpn frame =
  Sim.Stats.cincr t.hot.c_prefetch_aborted;
  if Trace.enabled cat_prefetch then
    Trace.instant cat_prefetch ~name:"prefetch_abort" ~track:trk_prefetch
      ~args:[ ("vpn", Trace.I vpn) ]
      ();
  (match Vmem.Pte.tag (Vmem.Page_table.get t.pt vpn) with
  | Vmem.Pte.Fetching ->
      Vmem.Page_table.set t.pt vpn (Vmem.Pte.make_remote ())
  | Vmem.Pte.Local | Vmem.Pte.Remote | Vmem.Pte.Unmapped | Vmem.Pte.Action ->
      ());
  Page_manager.release_frame t.pm frame;
  Sim.Condvar.broadcast t.mapping_changed

(* Checks and PTE transition for one prefetch candidate: skipped when
   memory is tight, when the page is not remote, or when it lies
   outside DDC ranges (shed work instead of blocking). Marks the page
   Fetching and counts it immediately — before any posting — so later
   candidates in the same batch observe the transition; returns the
   work still to be posted, if any. *)
let prepare_prefetch t ?(flow = 0) vpn =
  if Page_manager.free_frames t.pm > t.prefetch_low then begin
    let base = Vmem.Addr.base vpn in
    if Vmem.Address_space.is_ddc t.aspace base then begin
      let pte = Vmem.Page_table.get t.pt vpn in
      match Vmem.Pte.tag pte with
      | Vmem.Pte.Local | Vmem.Pte.Fetching | Vmem.Pte.Unmapped -> None
      | (Vmem.Pte.Remote | Vmem.Pte.Action) as tag -> (
          match Page_manager.try_alloc_frame t.pm with
          | None -> None
          | Some frame ->
              Vmem.Page_table.set t.pt vpn (Vmem.Pte.make_fetching ());
              Sim.Stats.cincr t.hot.c_prefetch_issued;
              let p_t0 = Sim.Engine.now t.eng in
              let foff = Vmem.Frame.offset t.frames frame in
              let segs =
                match tag with
                | Vmem.Pte.Action ->
                    (* Partial-page fetch: the vector's dead ranges stay
                       whatever the recycled frame held, so clear them
                       (host-side only, no simulated charge). *)
                    Vmem.Frame.fill_page t.frames frame '\000';
                    action_segs t ~payload:(Vmem.Pte.payload pte) ~base ~foff
                | _ -> Writeback.segs ~base ~foff None
              in
              match segs with
              | [] ->
                  prefetch_finish t ~flow ~p_t0 vpn frame;
                  None
              | segs ->
                  Some
                    {
                      segs;
                      on_complete =
                        (fun () -> prefetch_finish t ~flow ~p_t0 vpn frame);
                      on_error = (fun () -> prefetch_abort t vpn frame);
                    })
    end
    else None
  end
  else None

let post_pf t qp { segs; on_complete; on_error } =
  Rdma.Qp.post_read ~on_error qp ~segs ~buf:t.slab ~on_complete

(* Post one fault's surviving prefetch candidates as a single chain:
   one doorbell, then one WR per candidate in order, per-op service
   unchanged. *)
let post_prefetch_window t ~core prepared =
  let qp = Comm.prefetch_qp t.comm ~core in
  Rdma.Qp.note_read_batch qp ~wrs:(List.length prepared);
  List.iter (post_pf t qp) prepared

(* Asynchronous page prefetch; also the guide's pf_prefetch. *)
let issue_prefetch t ~core vpn =
  match prepare_prefetch t vpn with
  | None -> ()
  | Some wr -> post_pf t (Comm.prefetch_qp t.comm ~core) wr

let prefetch_ops t ~core =
  {
    Guide.pf_prefetch = (fun addr -> issue_prefetch t ~core (Vmem.Addr.vpn addr));
    pf_fetch_sub =
      (fun addr len k ->
        if len <= 0 then invalid_arg "pf_fetch_sub: len <= 0";
        let vpn = Vmem.Addr.vpn addr in
        let pte = Vmem.Page_table.get t.pt vpn in
        let off = Vmem.Addr.offset addr in
        (* Guide's pf_fetch_sub contract hands the continuation a fresh
           caller-owned Bytes.t (the remote-object payload escapes into
           app state), so the Bigbuf copy-out below cannot be pooled;
           both edges are justified rather than the to_bytes source, so
           any *new* hot caller of to_bytes still gets flagged. *)
        if Vmem.Pte.tag pte = Vmem.Pte.Local && off + len <= Vmem.Addr.page_size
        then
          let foff = Vmem.Frame.offset t.frames (Vmem.Pte.frame pte) in
          k (Sim.Bigbuf.to_bytes t.slab ~off:(foff + off) ~len
             [@lint.allow "hot-alloc-path"])
        else begin
          Sim.Stats.cincr t.hot.c_subpage_fetches;
          Sim.Stats.cadd t.hot.c_subpage_bytes len;
          let buf = Sim.Bigbuf.create len in
          Rdma.Qp.post_read
            (Comm.guide_qp t.comm ~core)
            ~segs:[ { Rdma.Qp.raddr = addr; loff = 0; len } ]
            ~buf
            ~on_complete:(fun () ->
              k (Sim.Bigbuf.to_bytes buf ~off:0 ~len
                 [@lint.allow "hot-alloc-path"]))
        end);
    pf_is_local =
      (fun addr ->
        Vmem.Pte.tag (Vmem.Page_table.get t.pt (Vmem.Addr.vpn addr)) = Vmem.Pte.Local);
    pf_now = (fun () -> Sim.Engine.now t.eng);
  }

let elapsed_ns t t0 = Int64.to_int (Sim.Time.sub (Sim.Engine.now t.eng) t0)

(* Major fault: the faulted page is on the memory node ([Remote]) or
   was evicted with a guided vector ([Action]). *)
let major_fault t cs vpn pte =
  let t_start = Sim.Engine.now t.eng in
  let base = Vmem.Addr.base vpn in
  (* Decode the entry and mark it Fetching atomically (no intervening
     sleep): a concurrent fault on another core must observe Fetching
     and wait instead of issuing a duplicate READ (§4.2). *)
  let partial = Vmem.Pte.tag pte = Vmem.Pte.Action in
  let segs =
    match Vmem.Pte.tag pte with
    | Vmem.Pte.Action ->
        action_segs t ~payload:(Vmem.Pte.payload pte) ~base ~foff:0
    | Vmem.Pte.Remote -> Writeback.segs ~base ~foff:0 None
    | Vmem.Pte.Local | Vmem.Pte.Unmapped | Vmem.Pte.Fetching -> assert false
  in
  Vmem.Page_table.set t.pt vpn (Vmem.Pte.make_fetching ());
  Sim.Engine.sleep t.eng (Sim.Time.ns Params.dilos_pte_check_ns);
  let alloc_t0 = Sim.Engine.now t.eng in
  let frame = Page_manager.alloc_frame t.pm in
  (* The segs were decoded against offset 0, before the frame existed;
     rebase them onto the frame's slab offset, where the READ lands. *)
  let foff = Vmem.Frame.offset t.frames frame in
  let segs = rebase_segs foff segs in
  (* A vectored (partial-page) fetch leaves the vector's dead ranges
     holding whatever the recycled frame last contained; clear them
     (host-side only, no simulated charge — see Frame.alloc). *)
  if partial then Vmem.Frame.fill_page t.frames frame '\000';
  Sim.Engine.sleep t.eng (Sim.Time.ns Params.dilos_page_alloc_ns);
  let alloc_ns = elapsed_ns t alloc_t0 in
  let fetch_t0 = Sim.Engine.now t.eng in
  let completed = ref false in
  let failed = ref false in
  let waiter = ref None in
  let wake_fault () =
    match !waiter with Some wake -> wake () | None -> ()
  in
  let fa = Major_fault.fetch_attrib t.hot.mf in
  (* The demand fetch must eventually succeed — the page stays Fetching
     and every other core queues behind it — so a permanent RDMA
     failure is answered by re-posting the same WR after a short pause
     (the segs were decoded from the PTE once; an Action vector entry
     is consumed by that decode and must not be re-decoded). *)
  let post_fetch () =
    Rdma.Qp.post_read
      ~on_error:(fun () ->
        failed := true;
        completed := true;
        wake_fault ())
      ?fa
      (Comm.fault_qp t.comm ~core:(Cpu.id cs))
      ~segs
      ~buf:t.slab
      ~on_complete:(fun () ->
        completed := true;
        wake_fault ())
  in
  (match segs with [] -> completed := true | _ :: _ -> post_fetch ());
  (* Work hidden inside the fetch window (§4.3): hit tracking and
     prefetch issue happen while the 4 KiB READ is in flight. *)
  (* Scan first: used prefetches are older accesses than this fault
     and must precede it in the reconstructed history. *)
  let ratio = Hit_tracker.scan t.tracker in
  Hit_tracker.note_fault t.tracker vpn;
  Sim.Engine.sleep t.eng (Hit_tracker.scan_cost 64);
  (* One materialization of the fault history per fault, shared by the
     guide and the prefetcher; the readahead path never forces it. *)
  let history_memo = ref None in
  let history () =
    match !history_memo with
    | Some h -> h
    | None ->
        let h = Hit_tracker.history t.tracker in
        history_memo := Some h;
        h
  in
  let handled =
    match t.prefetch_guide with
    | Some g ->
        g.Guide.pg_on_fault
          (prefetch_ops t ~core:(Cpu.id cs))
          {
            Guide.fi_addr = base;
            fi_hit_ratio = ratio;
            fi_history = history ();
          }
    | None -> false
  in
  let pf_flow = ref 0 in
  if not handled then begin
    let wanted =
      t.prefetcher.Prefetcher.decide ~fault_vpn:vpn ~hit_ratio:ratio ~history
    in
    Sim.Engine.sleep t.eng (Prefetcher.decision_cost (List.length wanted));
    (* Flow arrow linking this fault's span to the prefetch spans it
       triggered (0 = tracing off = no flow). *)
    let flow = if Trace.enabled cat_prefetch then Trace.flow () else 0 in
    (* All surviving candidates go out as one WR chain: one doorbell,
       per-op service unchanged (see post_prefetch_window). *)
    match List.filter_map (prepare_prefetch t ~flow) wanted with
    | [] -> ()
    | prepared ->
        pf_flow := flow;
        post_prefetch_window t ~core:(Cpu.id cs) prepared
  end;
  let refetches = ref 0 in
  let rec await () =
    if not !completed then
      Sim.Engine.suspend t.eng (fun wake -> waiter := Some wake);
    waiter := None;
    if !failed then begin
      Major_fault.retried t.hot.mf;
      failed := false;
      completed := false;
      incr refetches;
      Major_fault.fetch_failed !refetches base;
      Sim.Engine.sleep t.eng (Sim.Time.ns Params.fault_refetch_delay_ns);
      (* The pause before re-posting is retry overhead, same bucket as
         the QP's own backoff delays. *)
      (match fa with
      | Some a ->
          a.Trace.fa_backoff_ns <-
            a.Trace.fa_backoff_ns + Params.fault_refetch_delay_ns
      | None -> ());
      post_fetch ();
      await ()
    end
  in
  await ();
  let fetch_ns = elapsed_ns t fetch_t0 in
  let fetch_end = Sim.Engine.now t.eng in
  Sim.Engine.sleep t.eng (Sim.Time.ns Params.dilos_map_ns);
  map_fetched t vpn frame;
  Major_fault.count t.hot.mf;
  Major_fault.record t.hot.mf ~total_ns:(elapsed_ns t t_start)
    ~alloc_ns:(Int.min alloc_ns Params.dilos_page_alloc_ns)
    ~fetch_ns fa;
  Major_fault.reclaimed t.hot.mf
    (Int.max 0 (alloc_ns - Params.dilos_page_alloc_ns));
  Sim.Stats.cadd t.hot.c_ph_pte (Params.dilos_pte_check_ns + Params.dilos_map_ns);
  if Trace.enabled cat_fault then begin
    let t_end = Sim.Engine.now t.eng in
    Trace.complete cat_fault ~name:"pte_check" ~track:(Cpu.track cs) ~t0:t_start
      ~t1:alloc_t0 ();
    Trace.complete cat_fault ~name:"alloc" ~track:(Cpu.track cs) ~t0:alloc_t0
      ~t1:fetch_t0 ();
    Trace.complete cat_fault ~name:"fetch_window" ~track:(Cpu.track cs) ~t0:fetch_t0
      ~t1:fetch_end ();
    Trace.complete cat_fault ~name:"map" ~track:(Cpu.track cs) ~t0:fetch_end ~t1:t_end
      ();
    Trace.complete cat_fault ~name:"major_fault" ~track:(Cpu.track cs) ~t0:t_start
      ~t1:t_end ~flow_out:!pf_flow
      ~args:[ ("vpn", Trace.I vpn); ("fetch_ns", Trace.I fetch_ns) ]
      ()
  end

(* The fault hook of {!Cpu}, run after exception delivery: another
   core may have resolved or started resolving this page meanwhile,
   so dispatch on the PTE as it is now. *)
let fault t cs vpn =
  let pte = Vmem.Page_table.get t.pt vpn in
  match Vmem.Pte.tag pte with
  | Vmem.Pte.Local -> () (* raced with a concurrent mapping; retry *)
  | Vmem.Pte.Fetching ->
      (* Another core (or the prefetcher) is already fetching this
         page: wait for the PTE to change instead of duplicating the
         request (§4.2). These are DiLOS's "minor faults". *)
      Sim.Stats.cincr t.hot.c_fetch_waits;
      (* These waits are accesses the swap path observed; the trend
         detector needs them to see the true access stride (Leap logs
         every swap-path access, not only misses). *)
      Hit_tracker.note_fault t.tracker vpn;
      let t0 = Sim.Engine.now t.eng in
      Sim.Condvar.wait_for t.mapping_changed (fun () ->
          Vmem.Pte.tag (Vmem.Page_table.get t.pt vpn) <> Vmem.Pte.Fetching);
      Sim.Engine.sleep t.eng (Sim.Time.ns Params.dilos_fetch_wait_poll_ns);
      Trace.complete cat_fault ~name:"fetch_wait" ~track:(Cpu.track cs) ~t0 ();
      Sim.Histogram.add t.hot.h_fetch_wait (elapsed_ns t t0)
  | Vmem.Pte.Unmapped ->
      let addr = Vmem.Addr.base vpn in
      (match Vmem.Address_space.find t.aspace addr with
      | None -> raise (Cpu.Segmentation_fault addr)
      | Some vma ->
          (* First touch: anonymous zero-fill, no RDMA. alloc_frame can
             block, so re-check for a concurrent zero-fill afterwards. *)
          let frame = Page_manager.alloc_frame t.pm in
          if Vmem.Page_table.get t.pt vpn <> Vmem.Pte.zero then
            Vmem.Frame.free t.frames frame
          else begin
            Sim.Engine.sleep t.eng (Sim.Time.ns Params.dilos_page_alloc_ns);
            if Vmem.Page_table.get t.pt vpn <> Vmem.Pte.zero then
              Vmem.Frame.free t.frames frame
            else begin
              (* This is the one path that must actually deliver a zero
                 page (Frame.alloc recycles frames dirty). *)
              Vmem.Frame.fill_page t.frames frame '\000';
              Vmem.Page_table.set t.pt vpn (Vmem.Pte.make_local ~frame ~writable:true);
              if vma.Vmem.Address_space.ddc then Page_manager.note_mapped t.pm vpn;
              Sim.Condvar.broadcast t.mapping_changed;
              Major_fault.zero_filled t.hot.mf;
              if Trace.enabled cat_fault then
                Trace.instant cat_fault ~name:"zero_fill" ~track:(Cpu.track cs)
                  ~args:[ ("vpn", Trace.I vpn) ]
                  ()
            end
          end)
  | Vmem.Pte.Remote | Vmem.Pte.Action -> major_fault t cs vpn pte

(* ------------------------------------------------------------------ *)
(* Data path                                                           *)

(* A store through a read-loaded translation: {!Cpu} has just set the
   dirty bit, so the page becomes a cleaner candidate. *)
let first_store t cs vpn =
  Page_manager.note_dirtied t.pm vpn;
  Cpu.charge cs 5

let boot ~eng ~server ?nic_config (cfg : config) =
  if cfg.cores <= 0 then invalid_arg "Kernel.boot: cores <= 0";
  let stats = Sim.Stats.create () in
  let extra_completion_delay =
    if cfg.tcp_emulation then Some Params.tcp_emulation_delay else None
  in
  let fabric =
    Memnode.Server.connect server ~stats ?nic_config ?extra_completion_delay ()
  in
  let aspace = Vmem.Address_space.create () in
  let pt = Vmem.Page_table.create () in
  let frames =
    Vmem.Frame.create
      ~frames:(Int.max 32 (cfg.local_mem_bytes / Vmem.Addr.page_size))
  in
  let comm = Comm.create ~fabric ~cores:cfg.cores in
  let alloc =
    Ddc_alloc.create
      ~mmap:(fun len -> Vmem.Address_space.mmap aspace ~len ~ddc:true ~name:"ddc-arena" ())
      ()
  in
  let reclaim_guide =
    if cfg.guided_paging then Some (Ddc_alloc.reclaim_guide alloc) else None
  in
  let pm =
    Page_manager.create ~eng ~stats ~pt ~frames
      ~evict_qp:(Comm.evict_qp comm ~core:0) ?reclaim_guide ()
  in
  let prefetcher =
    match cfg.prefetch with
    | No_prefetch -> Prefetcher.none
    | Readahead -> Prefetcher.readahead ()
    | Trend_based -> Prefetcher.trend_based ()
  in
  let hot =
    {
      mf = Major_fault.create ~system:"dilos" stats;
      c_fetch_waits = Sim.Stats.counter stats "fetch_waits";
      c_prefetch_issued = Sim.Stats.counter stats "prefetch_issued";
      c_subpage_fetches = Sim.Stats.counter stats "subpage_fetches";
      c_subpage_bytes = Sim.Stats.counter stats "subpage_bytes";
      c_prefetch_aborted = Sim.Stats.counter stats "prefetch_aborted";
      c_ph_pte = Sim.Stats.counter stats "ph_pte_ns";
      h_fetch_wait = Sim.Stats.histogram stats "fetch_wait_ns";
    }
  in
  let t =
    {
      eng;
      cfg;
      stats;
      hot;
      fabric;
      aspace;
      pt;
      frames;
      slab = Vmem.Frame.slab frames;
      pm;
      comm;
      tracker = Hit_tracker.create pt;
      prefetcher;
      prefetch_guide = None;
      alloc;
      loader = Loader.create ();
      mapping_changed = Sim.Condvar.create eng;
      cpus = [||];
      prefetch_low =
        Int.max 2
          (Int.min Params.prefetch_low_frames (Vmem.Frame.total frames / 64));
    }
  in
  (* A store's slow path makes the page a cleaner candidate (the call
     is redundant, and free, when the page was already dirty). *)
  t.cpus <-
    Array.init cfg.cores
      (Cpu.create ~eng ~pt ~frames ~fault:(fault t)
         ~dirtied:(fun _ vpn -> Page_manager.note_dirtied pm vpn)
         ~first_store:(first_store t));
  Writeback.set_cpus (Page_manager.writeback pm) t.cpus;
  Page_manager.start pm;
  t

include Cpu.Accessors (struct
  type k = t

  let cpu = cpu
end)

(* ------------------------------------------------------------------ *)
(* Memory management                                                   *)

let mmap t ~len ~ddc ?name () = Vmem.Address_space.mmap t.aspace ~len ~ddc ?name ()

let munmap t base =
  let vma = Vmem.Address_space.munmap t.aspace base in
  let vpn0 = Vmem.Addr.vpn vma.Vmem.Address_space.base in
  let count = Int64.to_int (Int64.div vma.Vmem.Address_space.len 4096L) in
  Vmem.Page_table.iter_range t.pt ~vpn:vpn0 ~count (fun vpn pte ->
      match Vmem.Pte.tag pte with
      | Vmem.Pte.Local ->
          Vmem.Frame.free t.frames (Vmem.Pte.frame pte);
          Vmem.Page_table.set t.pt vpn Vmem.Pte.zero;
          Cpu.invalidate t.cpus vpn
      | Vmem.Pte.Remote | Vmem.Pte.Action ->
          Vmem.Page_table.set t.pt vpn Vmem.Pte.zero
      | Vmem.Pte.Fetching ->
          invalid_arg "Kernel.munmap: page fetch in flight"
      | Vmem.Pte.Unmapped -> ())

let ddc_malloc t ~core size =
  Cpu.charge (cpu t ~core) Params.ddc_malloc_ns;
  Ddc_alloc.malloc t.alloc size

let ddc_free t ~core addr =
  Cpu.charge (cpu t ~core) Params.ddc_free_ns;
  Ddc_alloc.free t.alloc ~write_link:(fun a -> write_u64 t ~core a 0xDEADBEEFL) addr

let malloc_usable_size t addr = Ddc_alloc.usable_size t.alloc addr
