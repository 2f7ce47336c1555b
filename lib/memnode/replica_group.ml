(* Primary/backup page replication across memnode shards.

   Pages are striped by virtual page number: page [p]'s primary is
   shard [p mod shards] and its K-1 backups follow round-robin. The
   group exposes ONE [Rdma.Qp.target] to the fabric (the computing
   node keeps the single flat address space the paper's memory node
   offers) and owns ONE [Page_store]: every live synced replica of a
   page holds the same bytes, so the bytes are kept once and each
   shard keeps only routing, liveness, what it is missing and
   telemetry. Shard [s] holds page [p] iff [s] is one of [p]'s
   replicas, [s] is alive, [p] is resident in the store and [p] is not
   in [s]'s [missed] set ([holds]).

   - READs are served by the primary; if it is dead (or still
     resyncing the page), the first surviving synced backup serves
     instead. No live synced replica left means the bytes are gone:
     {!Rdma.Qp.Unreachable} propagates the loss loudly. Either way the
     bytes come from the one store.

   - WRITEs are acknowledged only once every live synced replica of
     the page holds them (chain-replication ack semantics, at the WR's
     completion instant). Mirroring is granule-diffed in place against
     the store: only sub-page granules whose bytes actually changed
     land (once) and are charged as backup traffic, which is what
     bounds replication write-amplification. The traffic is counted in
     the [repl_*] stats, with wire time priced through {!Rdma.Nic}.

   - A killed shard loses its DRAM: it tombstones the pages it held,
     and a resident page that no other replica holds is dropped from
     the store ([Page_store.drop]) and tombstoned on every dead
     replica, so no member can come back serving it as zeros.
     Recovery marks the shard syncing and a background fiber walks the
     pages it should hold, pacing itself to the resync bandwidth
     budget: a page some other replica holds is re-replicated by
     clearing it from [missed] (the bytes are already in the store);
     a page with no surviving holder stays missing (counted in
     [repl_lost_pages]) rather than silently serving zeros. *)

let page_size = 4096
let page_shift = 12

type config = {
  shards : int;
  replication : int;
  granule : int;  (** dirty-diff granule, bytes; divides 4096 *)
  resync_budget_bytes : int;  (** resync bytes allowed per interval *)
  resync_interval : Sim.Time.t;
}

let default_config =
  {
    shards = 2;
    replication = 2;
    granule = 256;
    (* 256 KiB / 100 us = 2.56 GB/s of recovery traffic: fast enough
       that drills finish, slow enough that recovery time is visible
       next to failover latency. *)
    resync_budget_bytes = 256 * 1024;
    resync_interval = Sim.Time.us 100;
  }

type hstats = {
  c_kills : Sim.Stats.counter;
  c_recovers : Sim.Stats.counter;
  c_failover_reads : Sim.Stats.counter;
  c_failover_ns : Sim.Stats.counter;
  c_mirror_writes : Sim.Stats.counter;
  c_mirror_bytes : Sim.Stats.counter;
  c_mirror_ns : Sim.Stats.counter;
  c_granules_dirty : Sim.Stats.counter;
  c_granules_clean : Sim.Stats.counter;
  c_resync_pages : Sim.Stats.counter;
  c_resync_bytes : Sim.Stats.counter;
  c_recovery_ns : Sim.Stats.counter;
  c_lost_pages : Sim.Stats.counter;
}

type shard = {
  idx : int;
  trk : int;
  (* Observatory: per-shard labeled series ({shard="N"}), resolved at
     [create] (boot) against the installed registry — the per-shard
     slice of the flat repl_* counters that Stats cannot express. *)
  ob_reads : Obs.Registry.counter;
  ob_writes : Obs.Registry.counter;
  ob_failover_reads : Obs.Registry.counter;
  ob_resync_pages : Obs.Registry.counter;
  mutable alive : bool;
  mutable syncing : bool;
  mutable epoch : int;  (* bumped on kill AND recover; fences stale fibers *)
  mutable killed_at : Sim.Time.t;
  mutable recovered_at : Sim.Time.t;
  mutable failover_pending : bool;
  missed : (int, unit) Hashtbl.t;  (* pages owed by the resync *)
  missed_q : int Queue.t;  (* deterministic resync order *)
  mutable tombstones : int list;
      (* pages this shard held when it died, or whose last holder died
         while it was dead, sorted ascending. "Nobody holds the page"
         must read as loss on recovery, not as fresh zeros, so the
         corpse itself carries the list. *)
}

type t = {
  eng : Sim.Engine.t;
  size : int64;
  cfg : config;
  store : Page_store.t;  (* every page's bytes, once *)
  shards : shard array;
  nic : Rdma.Nic.t;  (* prices mirror/backup wire time (accounting) *)
  mutable stats : hstats option;
  drill : bool;  (* the fault plan scripts kills or recovers *)
  mutable timers : Sim.Engine.timer list;
  mutable interval_resync : int;  (* bytes resynced in the current interval *)
  mutable max_interval_resync : int;
}

let cat_memnode = Trace.category "memnode"

let shards t = t.cfg.shards
let replication t = t.cfg.replication
let size t = t.size
let config t = t.cfg
let store t = t.store
let alive t i = t.shards.(i).alive
let syncing t i = t.shards.(i).syncing
let max_resync_bytes_per_interval t = t.max_interval_resync

(* The [repl_*] counters exist only where they can move. A lone shard
   with no scripted kill or recover never fails over, mirrors or
   resyncs, so it leaves the single memory node's Stats key set alone. *)
let attach_stats t st =
  if t.cfg.shards > 1 || t.drill then
    t.stats <-
      Some
        {
          c_kills = Sim.Stats.counter st "repl_kills";
          c_recovers = Sim.Stats.counter st "repl_recovers";
          c_failover_reads = Sim.Stats.counter st "repl_failover_reads";
          c_failover_ns = Sim.Stats.counter st "repl_failover_latency_ns";
          c_mirror_writes = Sim.Stats.counter st "repl_mirror_writes";
          c_mirror_bytes = Sim.Stats.counter st "repl_mirror_bytes";
          c_mirror_ns = Sim.Stats.counter st "repl_mirror_ns";
          c_granules_dirty = Sim.Stats.counter st "repl_granules_dirty";
          c_granules_clean = Sim.Stats.counter st "repl_granules_clean";
          c_resync_pages = Sim.Stats.counter st "repl_resync_pages";
          c_resync_bytes = Sim.Stats.counter st "repl_resync_bytes";
          c_recovery_ns = Sim.Stats.counter st "repl_recovery_ns";
          c_lost_pages = Sim.Stats.counter st "repl_lost_pages";
        }

let scount t sel =
  match t.stats with None -> () | Some h -> Sim.Stats.cincr (sel h)

let sadd t sel n =
  match t.stats with None -> () | Some h -> Sim.Stats.cadd (sel h) n

(* -- routing ------------------------------------------------------ *)

let vpn_of addr = Int64.to_int (Int64.shift_right_logical addr page_shift)

(* Replica [i] of page [vpn]; [i = 0] is the primary. *)
let replica t vpn i = t.shards.((vpn + i) mod t.cfg.shards)

(* Shard [idx] is replica [(idx - vpn) mod shards] of page [vpn]. *)
let member t vpn idx =
  let n = t.cfg.shards in
  (idx - (vpn mod n) + n) mod n < t.cfg.replication

(* A replica serves page [vpn] iff it is alive and not missing it:
   while resyncing, only pages already re-replicated qualify. *)
let serves s vpn = s.alive && ((not s.syncing) || not (Hashtbl.mem s.missed vpn))

let holds t i vpn =
  member t vpn i && serves t.shards.(i) vpn && Page_store.mem t.store vpn

(* First live synced replica of [vpn] from replica [i] on, recording
   failover telemetry for every freshly-dead shard the walk has to
   skip. Top-level rather than a local closure: every RDMA completion
   routes through here. *)
let rec serving_replica t vpn addr ~is_read i =
  if i >= t.cfg.replication then raise (Rdma.Qp.Unreachable addr)
  else begin
    let s = replica t vpn i in
    if serves s vpn then begin
      if i > 0 && is_read then begin
        scount t (fun h -> h.c_failover_reads);
        Obs.Registry.cincr s.ob_failover_reads
      end;
      s
    end
    else begin
      if s.failover_pending then begin
        (* First request redirected past this corpse: the gap since
           the kill is the observed failover latency. *)
        s.failover_pending <- false;
        sadd t
          (fun h -> h.c_failover_ns)
          (Int64.to_int (Sim.Time.sub (Sim.Engine.now t.eng) s.killed_at))
      end;
      serving_replica t vpn addr ~is_read (i + 1)
    end
  end

(* -- kill / recover ----------------------------------------------- *)

(* Whether a replica of [vpn] other than [s] serves it: the source a
   resync of [vpn] into [s] needs, and what a dying [s] leaves behind.
   The bytes are already in the store, so clearing [vpn] from [s]'s
   [missed] set is the whole copy. *)
let has_source t s vpn =
  let rec source i =
    i < t.cfg.replication
    &&
    let q = replica t vpn i in
    (q != s && serves q vpn) || source (i + 1)
  in
  source 0

let kill t idx =
  let s = t.shards.(idx) in
  if s.alive then begin
    s.alive <- false;
    s.syncing <- false;
    s.epoch <- s.epoch + 1;
    s.killed_at <- Sim.Engine.now t.eng;
    s.failover_pending <- true;
    (* Tombstones: everything the shard held (or still owed from an
       earlier death) at this instant. sort_uniq also erases the
       Hashtbl's iteration order, keeping recovery deterministic. A page
       it held that no other replica holds is orphaned. *)
    let dead = ref s.tombstones and orphans = ref [] in
    Hashtbl.iter (fun vpn () -> dead := vpn :: !dead) s.missed;
    Page_store.iter_touched t.store (fun vpn ->
        if member t vpn idx && not (Hashtbl.mem s.missed vpn) then begin
          dead := vpn :: !dead;
          if not (has_source t s vpn) then orphans := vpn :: !orphans
        end);
    s.tombstones <- List.sort_uniq Int.compare !dead;
    Hashtbl.reset s.missed;
    Queue.clear s.missed_q;
    (* The last copy of an orphan died with this shard's DRAM: forget
       the bytes, and make every other dead replica remember the page
       as lost too (a live one is already missing it). *)
    if !orphans <> [] then begin
      Array.iter
        (fun q ->
          if q != s && not q.alive then
            match List.filter (fun vpn -> member t vpn q.idx) !orphans with
            | [] -> ()
            | mine ->
                q.tombstones <- List.sort_uniq Int.compare (mine @ q.tombstones))
        t.shards;
      List.iter (Page_store.drop t.store) !orphans
    end;
    scount t (fun h -> h.c_kills);
    if Trace.enabled cat_memnode then
      Trace.instant cat_memnode ~name:"shard_kill" ~track:s.trk ()
  end

let finish_sync t s =
  s.syncing <- false;
  sadd t
    (fun h -> h.c_recovery_ns)
    (Int64.to_int (Sim.Time.sub (Sim.Engine.now t.eng) s.recovered_at));
  if Trace.enabled cat_memnode then
    Trace.instant cat_memnode ~name:"shard_synced" ~track:s.trk ()

let resync_fiber t s epoch () =
  let budget = t.cfg.resync_budget_bytes in
  let live () = s.epoch = epoch && s.alive in
  while live () && not (Queue.is_empty s.missed_q) do
    let vpn = Queue.pop s.missed_q in
    if Hashtbl.mem s.missed vpn then begin
      if has_source t s vpn then begin
        Hashtbl.remove s.missed vpn;
        scount t (fun h -> h.c_resync_pages);
        Obs.Registry.cincr s.ob_resync_pages;
        sadd t (fun h -> h.c_resync_bytes) page_size;
        t.interval_resync <- t.interval_resync + page_size;
        if t.interval_resync > t.max_interval_resync then
          t.max_interval_resync <- t.interval_resync;
        if t.interval_resync >= budget then begin
          (* Bandwidth meter: the re-replication stream yields the
             fabric once it has moved its per-interval allowance. *)
          t.interval_resync <- 0;
          Sim.Engine.sleep t.eng t.cfg.resync_interval
        end
      end
      else
        (* No surviving source: the page is lost for good. It stays in
           [missed] so this shard keeps refusing to serve it — zeros
           would be silent corruption. *)
        scount t (fun h -> h.c_lost_pages)
    end
  done;
  if live () && Hashtbl.length s.missed = 0 then finish_sync t s

let recover t idx =
  let s = t.shards.(idx) in
  if not s.alive then begin
    s.alive <- true;
    s.syncing <- true;
    s.epoch <- s.epoch + 1;
    s.recovered_at <- Sim.Engine.now t.eng;
    (* No read ever had to route around this shard; drop the pending
       failover-latency measurement rather than charging recovery. *)
    s.failover_pending <- false;
    scount t (fun h -> h.c_recovers);
    if Trace.enabled cat_memnode then
      Trace.instant cat_memnode ~name:"shard_recover" ~track:s.trk ();
    (* Everything this shard should hold is a page some survivor holds.
       Ascending survivor then ascending page keeps the queue order — and
       hence resync completion times — deterministic. *)
    Array.iter
      (fun q ->
        if q != s && q.alive then
          Page_store.iter_touched t.store (fun vpn ->
              if
                member t vpn idx && holds t q.idx vpn
                && not (Hashtbl.mem s.missed vpn)
              then begin
                Hashtbl.add s.missed vpn ();
                Queue.push vpn s.missed_q
              end))
      t.shards;
    (* Pages only the corpse remembered (every replica dead, or RF=1):
       queue them too, so the resync fiber either finds a source that
       came back in the meantime or counts them lost — and the shard
       keeps refusing them instead of serving fresh zeros. *)
    List.iter
      (fun vpn ->
        if not (Hashtbl.mem s.missed vpn) then begin
          Hashtbl.add s.missed vpn ();
          Queue.push vpn s.missed_q
        end)
      s.tombstones;
    s.tombstones <- [];
    if Queue.is_empty s.missed_q then finish_sync t s
    else
      Sim.Engine.spawn t.eng ~name:"repl.resync" (resync_fiber t s s.epoch)
  end

let cancel_drill t =
  List.iter Sim.Engine.cancel t.timers;
  t.timers <- []

(* -- data path ---------------------------------------------------- *)

let check t addr len =
  if len < 0 then invalid_arg "Replica_group: negative length";
  if
    Int64.compare addr 0L < 0
    || Int64.compare (Int64.add addr (Int64.of_int len)) t.size > 0
  then
    invalid_arg
      (Printf.sprintf "Replica_group: range [0x%Lx,+%d) out of bounds" addr len)

(* Apply [f t addr buf off n] to each in-page chunk of
   [addr, addr+len). [f] is a top-level function, so a single-page
   access allocates nothing. *)
let rec each_page f t addr buf off len =
  if len > 0 then begin
    let n = Int.min len (page_size - Int64.to_int (Int64.logand addr 4095L)) in
    f t addr buf off n;
    if len > n then
      each_page f t (Int64.add addr (Int64.of_int n)) buf (off + n) (len - n)
  end

let read_chunk t addr dst off len =
  let s = serving_replica t (vpn_of addr) addr ~is_read:true 0 in
  Obs.Registry.cincr s.ob_reads;
  if Trace.enabled cat_memnode then
    Trace.instant cat_memnode ~name:"page_read" ~track:s.trk
      ~args:[ ("len", Trace.I len) ]
      ();
  Page_store.read t.store ~addr ~dst ~off ~len

let read t addr dst off len =
  check t addr len;
  each_page read_chunk t addr dst off len

(* Live synced replicas of [vpn] from replica [i] on. *)
let rec serving_copies t vpn i =
  if i >= t.cfg.replication then 0
  else (if serves (replica t vpn i) vpn then 1 else 0) + serving_copies t vpn (i + 1)

(* A staged in-page WRITE payload [h] of [len] bytes landing at
   [addr]. At one copy per page it lands straight in the store. At
   more, it is diffed in place against the store in granule units:
   only the granules whose bytes changed land (once: the store is
   every replica's copy) and are charged as backup traffic. A whole
   page with any dirty granule is adopted as the page's block, which
   is then byte-for-byte what landing its dirty runs would leave; one
   with none lands nothing. The handle is consumed on every path,
   [Unreachable] included. *)
let land_write t addr h len =
  check t addr len;
  let vpn = vpn_of addr in
  let auth =
    match serving_replica t vpn addr ~is_read:false 0 with
    | s -> s
    | exception (Rdma.Qp.Unreachable _ as e) ->
        Page_store.unstage t.store h;
        raise e
  in
  Obs.Registry.cincr auth.ob_writes;
  if Trace.enabled cat_memnode then
    Trace.instant cat_memnode ~name:"page_write" ~track:auth.trk
      ~args:[ ("len", Trace.I len) ]
      ();
  if t.cfg.replication = 1 then
    (* Single copy: no mirror traffic to bound, land straight through. *)
    Page_store.land_staged t.store ~addr h ~len
  else begin
    let g = t.cfg.granule in
    let page_base = Int64.logand addr (Int64.lognot 4095L) in
    let start = Int64.to_int (Int64.sub addr page_base) in
    let fin = start + len in
    let whole = len = page_size in
    let g_last = (fin - 1) / g in
    (* [run_start, p0) is the dirty run being extended (-1: none). The
       step past the last granule is clean, so it closes the final run. *)
    let run_start = ref (-1) and dirty_bytes = ref 0 and dirty_runs = ref 0 in
    for gi = start / g to g_last + 1 do
      let p0 = Int.min fin (Int.max start (gi * g)) in
      let p1 = Int.min fin ((gi + 1) * g) in
      let dirty =
        gi <= g_last
        && not
             (Page_store.equal t.store vpn ~inb:p0 h ~soff:(p0 - start)
                ~len:(p1 - p0))
      in
      if dirty then begin
        scount t (fun h -> h.c_granules_dirty);
        if !run_start < 0 then run_start := p0
      end
      else begin
        if gi <= g_last then scount t (fun h -> h.c_granules_clean);
        if !run_start >= 0 then begin
          let n = p0 - !run_start in
          if not whole then
            Page_store.write_staged t.store
              ~addr:(Int64.add page_base (Int64.of_int !run_start))
              h ~soff:(!run_start - start) ~len:n;
          incr dirty_runs;
          dirty_bytes := !dirty_bytes + n;
          run_start := -1
        end
      end
    done;
    if whole && !dirty_runs > 0 then Page_store.adopt t.store vpn h
    else Page_store.unstage t.store h;
    if !dirty_runs > 0 then begin
      (* Backup copies: the primary's write is already priced by the
         QP; each additional live replica pays one more wire trip. *)
      let backups = serving_copies t vpn 0 - 1 in
      if backups > 0 then begin
        sadd t (fun h -> h.c_mirror_writes) backups;
        sadd t (fun h -> h.c_mirror_bytes) (!dirty_bytes * backups);
        let wire =
          Rdma.Nic.latency t.nic Rdma.Nic.Write ~bytes_:!dirty_bytes
            ~segments:!dirty_runs ~huge_pages:true
        in
        sadd t (fun h -> h.c_mirror_ns) (Int64.to_int wire * backups)
      end
    end
  end

let target t =
  {
    Rdma.Qp.t_read = (fun addr buf off len -> read t addr buf off len);
    t_stage = (fun src off len -> Page_store.stage t.store ~src ~off ~len);
    t_land = (fun addr h len -> land_write t addr h len);
    t_unstage = (fun h -> Page_store.unstage t.store h);
  }

let create ~eng ~size ?(config = default_config) ?faults () =
  let cfg = config in
  if cfg.shards < 1 then invalid_arg "Replica_group: shards must be >= 1";
  if cfg.replication < 1 || cfg.replication > cfg.shards then
    invalid_arg "Replica_group: replication must be in [1, shards]";
  if cfg.granule < 8 || page_size mod cfg.granule <> 0 then
    invalid_arg "Replica_group: granule must divide 4096 (and be >= 8)";
  if cfg.resync_budget_bytes < page_size then
    invalid_arg "Replica_group: resync budget below one page";
  let shards =
    Array.init cfg.shards (fun idx ->
        let ob metric =
          Obs.Registry.counter ~name:metric
            ~labels:[ ("shard", string_of_int idx) ]
            ()
        in
        {
          idx;
          trk = Trace.track (Printf.sprintf "memnode/shard%d" idx);
          ob_reads = ob "repl_shard_reads";
          ob_writes = ob "repl_shard_writes";
          ob_failover_reads = ob "repl_shard_failover_reads";
          ob_resync_pages = ob "repl_shard_resync_pages";
          alive = true;
          syncing = false;
          epoch = 0;
          killed_at = Sim.Time.zero;
          recovered_at = Sim.Time.zero;
          failover_pending = false;
          missed = Hashtbl.create 64;
          missed_q = Queue.create ();
          tombstones = [];
        })
  in
  let t =
    {
      eng;
      size;
      cfg;
      shards;
      store = Page_store.create ~size;
      nic = Rdma.Nic.create ();
      stats = None;
      drill =
        (match faults with
        | Some plan -> Faults.Spec.has_drill (Faults.Plan.spec plan)
        | None -> false);
      timers = [];
      interval_resync = 0;
      max_interval_resync = 0;
    }
  in
  (* Redundancy-deficit gauge, one series per shard: pages whose
     replica count is below target because this shard is dead (its
     tombstones) or still resyncing (its missed set). The health rule
     [resync-backlog] watches it go positive. Probes are sampled at
     export / health ticks only — List.length on the tombstones is
     cold-path. *)
  Array.iter
    (fun s ->
      Obs.Registry.probe ~name:"repl_resync_backlog_pages"
        ~help:"pages below replication target on this shard"
        ~labels:[ ("shard", string_of_int s.idx) ]
        (fun () ->
          if not s.alive then List.length s.tombstones
          else if s.syncing then Hashtbl.length s.missed
          else 0))
    shards;
  (* Scripted drill schedule: the spec's instants are plain data
     (seeded by whoever built the spec), armed as cancellable engine
     timers here. *)
  (match faults with
  | None -> ()
  | Some plan ->
      let arm evts act =
        List.iter
          (fun (id, at) ->
            if id < 0 || id >= cfg.shards then
              invalid_arg
                (Printf.sprintf "Replica_group: drill names shard %d of %d" id
                   cfg.shards);
            t.timers <-
              Sim.Engine.timer_at eng at (fun () -> act t id) :: t.timers)
          evts
      in
      arm (Faults.Plan.kills plan) kill;
      arm (Faults.Plan.recovers plan) recover);
  t
