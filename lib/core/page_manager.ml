(* The LRU clock: a FIFO ring of VPNs. [queued] maps each queued VPN to
   its push sequence number shifted left one bit; the low bit is the
   VPN's flag, set while it has a live candidate in the dirty index.
   Sequence numbers increase from head to tail, so they order the
   clock. *)
module Clock = struct
  type t = {
    mutable data : int array;
    mutable head : int;
    mutable len : int;
    mutable next_seq : int;
    queued : int Sim.Int_table.t;
  }

  let create () =
    {
      data = Array.make 256 0;
      head = 0;
      len = 0;
      next_seq = 0;
      queued = Sim.Int_table.create 256;
    }

  let length t = t.len

  let slot t vpn =
    match Sim.Int_table.find t.queued vpn with s -> s | exception Not_found -> -1

  (* Set [vpn]'s flag and return its sequence number; -1 when it is not
     queued or already flagged. *)
  let flag t vpn =
    let s = slot t vpn in
    if s >= 0 && s land 1 = 0 then begin
      Sim.Int_table.replace t.queued vpn (s lor 1);
      s lsr 1
    end
    else -1

  (* [vpn] is still queued under [seq], with its flag set. *)
  let flagged t vpn seq = slot t vpn = (seq lsl 1) lor 1
  let unflag t vpn seq = Sim.Int_table.replace t.queued vpn (seq lsl 1)

  let push t vpn =
    if not (Sim.Int_table.mem t.queued vpn) then begin
      let cap = Array.length t.data in
      if t.len = cap then begin
        let nd = Array.make (cap * 2) 0 in
        for i = 0 to t.len - 1 do
          nd.(i) <- t.data.((t.head + i) mod cap)
        done;
        t.data <- nd;
        t.head <- 0
      end;
      t.data.((t.head + t.len) mod Array.length t.data) <- vpn;
      t.len <- t.len + 1;
      Sim.Int_table.replace t.queued vpn (t.next_seq lsl 1);
      t.next_seq <- t.next_seq + 1
    end

  let pop t =
    if t.len = 0 then None
    else begin
      let vpn = t.data.(t.head) in
      t.head <- (t.head + 1) mod Array.length t.data;
      t.len <- t.len - 1;
      Sim.Int_table.remove t.queued vpn;
      Some vpn
    end

  let to_list t = List.init t.len (fun i -> t.data.((t.head + i) mod Array.length t.data))
end

(* Binary min-heap of dirty candidates [(seq, vpn)] keyed by clock
   sequence number, so candidates pop in clock order. *)
module Dirty_index = struct
  type t = { mutable seqs : int array; mutable vpns : int array; mutable size : int }

  let create () = { seqs = Array.make 16 0; vpns = Array.make 16 0; size = 0 }
  let is_empty t = t.size = 0
  let min_seq t = t.seqs.(0)
  let min_vpn t = t.vpns.(0)

  let put t i seq vpn =
    t.seqs.(i) <- seq;
    t.vpns.(i) <- vpn

  let add t seq vpn =
    if t.size = Array.length t.seqs then begin
      let grow a =
        let b = Array.make (2 * t.size) 0 in
        Array.blit a 0 b 0 t.size;
        b
      in
      t.seqs <- grow t.seqs;
      t.vpns <- grow t.vpns
    end;
    let i = ref t.size in
    t.size <- t.size + 1;
    while !i > 0 && t.seqs.((!i - 1) / 2) > seq do
      let p = (!i - 1) / 2 in
      put t !i t.seqs.(p) t.vpns.(p);
      i := p
    done;
    put t !i seq vpn

  let remove_min t =
    t.size <- t.size - 1;
    let seq = t.seqs.(t.size) and vpn = t.vpns.(t.size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < t.size && t.seqs.(l + 1) < t.seqs.(l) then l + 1 else l in
      if c < t.size && t.seqs.(c) < seq then begin
        put t !i t.seqs.(c) t.vpns.(c);
        i := c
      end
      else sifting := false
    done;
    put t !i seq vpn
end

(* Reclaim-path stats cells, resolved once at [create]: eviction and
   write-back run per page under memory pressure. *)
type hot_stats = {
  c_evictions : Sim.Stats.counter;
  c_writebacks : Sim.Stats.counter;
  c_wb_failures : Sim.Stats.counter;
  c_reclaim_gave_up : Sim.Stats.counter;
  c_reclaim_stalls : Sim.Stats.counter;
  c_reclaim_stall_ns : Sim.Stats.counter;
}

type t = {
  eng : Sim.Engine.t;
  stats : Sim.Stats.t;
  hot : hot_stats;
  pt : Vmem.Page_table.t;
  frames : Vmem.Frame.t;
  evict_qp : Rdma.Qp.t;
  wb_bound : Major_fault.writebacks;
  reclaim_guide : Guide.reclaim_guide option;
  clock : Clock.t;
  vector_log : (int * int) list Sim.Int_table.t;
  mutable next_log_id : int;
  (* Invariant: every [Local] dirty page on the clock has exactly one
     live candidate here; stale ones are discarded when popped. *)
  dirty : Dirty_index.t;
  wb_inflight : unit Sim.Int_table.t;
  mutable invalidate : int -> unit;
  frames_avail : Sim.Condvar.t;
  reclaim_work : Sim.Condvar.t;
  wb_done : Sim.Condvar.t;
  mutable running : bool;
  low : int;
  high : int;
}

let create ~eng ~stats ~pt ~frames ~evict_qp ?reclaim_guide () =
  let total = Vmem.Frame.total frames in
  (* The free pool must absorb a demand fetch plus a full prefetch
     window between reclaimer wake-ups, or prefetching starves. *)
  let low =
    Int.max
      (2 + Params.readahead_max_window)
      (int_of_float (Params.free_low_watermark *. float_of_int total))
  in
  let high =
    Int.max (3 * low)
      (int_of_float (Params.free_high_watermark *. float_of_int total))
  in
  {
    eng;
    stats;
    hot =
      {
        c_evictions = Sim.Stats.counter stats "evictions";
        c_writebacks = Sim.Stats.counter stats "writebacks";
        c_wb_failures = Sim.Stats.counter stats "writeback_failures";
        c_reclaim_gave_up = Sim.Stats.counter stats "reclaim_gave_up";
        c_reclaim_stalls = Sim.Stats.counter stats "reclaim_stalls";
        c_reclaim_stall_ns = Sim.Stats.counter stats "reclaim_stall_ns";
      };
    pt;
    frames;
    evict_qp;
    wb_bound = Major_fault.writebacks stats;
    reclaim_guide;
    clock = Clock.create ();
    vector_log = Sim.Int_table.create 64;
    next_log_id = 1;
    dirty = Dirty_index.create ();
    wb_inflight = Sim.Int_table.create 16;
    invalidate = (fun _ -> ());
    frames_avail = Sim.Condvar.create eng;
    reclaim_work = Sim.Condvar.create eng;
    wb_done = Sim.Condvar.create eng;
    running = false;
    low;
    high;
  }

let set_invalidate t f = t.invalidate <- f
let free_frames t = Vmem.Frame.free_count t.frames

(* Give queued page [vpn] a live dirty candidate unless it has one;
   pages off the clock are not the cleaner's business. *)
let note_dirtied t vpn =
  let seq = Clock.flag t.clock vpn in
  if seq >= 0 then Dirty_index.add t.dirty seq vpn

(* Every clock push goes through here, so a dirty page gets its
   candidate when it is queued. *)
let enqueue t vpn =
  Clock.push t.clock vpn;
  let pte = Vmem.Page_table.get t.pt vpn in
  match Vmem.Pte.tag pte with
  | Vmem.Pte.Local when Vmem.Pte.dirty pte -> note_dirtied t vpn
  | Vmem.Pte.Local | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Fetching
  | Vmem.Pte.Action ->
      ()

let note_mapped = enqueue
let clock_order t = Clock.to_list t.clock
let writeback_in_flight t vpn = Sim.Int_table.mem t.wb_inflight vpn

let vector_segments t ~payload =
  match Sim.Int_table.find_opt t.vector_log payload with
  | Some segs ->
      Sim.Int_table.remove t.vector_log payload;
      segs
  | None -> invalid_arg "Page_manager.vector_segments: unknown payload"

let log_vector t segs =
  let id = t.next_log_id in
  t.next_log_id <- t.next_log_id + 1;
  Sim.Int_table.replace t.vector_log id segs;
  id

let guide_segments t vpn =
  match t.reclaim_guide with
  | None -> None
  | Some g -> (
      match g.Guide.rg_live_segments (Vmem.Addr.base vpn) with
      | None -> None
      | Some [] -> Some [] (* page holds no live data: nothing to move *)
      | Some segs ->
          let segs = Guide.clamp_segments segs in
          (* A full-page vector is just an ordinary page. *)
          match segs with
          | [ (0, len) ] when len = Vmem.Addr.page_size -> None
          | _ -> Some segs)

(* The guide says the page holds no live data. *)
let no_live_data t vpn =
  match guide_segments t vpn with Some [] -> true | Some (_ :: _) | None -> false

(* Drop a local page without any RDMA: either it is clean (remote copy
   current) or the guide says nothing on it is live. With a guide,
   leave an Action PTE so the refetch moves only live bytes. *)
let drop_without_write t vpn pte =
  let frame = Vmem.Pte.frame pte in
  let new_pte =
    match guide_segments t vpn with
    | Some segs -> Vmem.Pte.make_action ~payload:(log_vector t segs)
    | None -> Vmem.Pte.make_remote ()
  in
  Vmem.Page_table.set t.pt vpn new_pte;
  t.invalidate vpn;
  Vmem.Frame.free t.frames frame;
  Sim.Stats.cincr t.hot.c_evictions;
  Sim.Condvar.broadcast t.frames_avail

(* Write a dirty page back. [then_evict] distinguishes the reclaimer's
   clean-then-drop path from the periodic cleaner (which leaves the
   page mapped). *)
let writeback t vpn pte ~then_evict =
  if not (Sim.Int_table.mem t.wb_inflight vpn) then begin
    let frame = Vmem.Pte.frame pte in
    Sim.Int_table.replace t.wb_inflight vpn ();
    (* Clear dirty before the copy is snapshotted: a store racing with
       the write-back must re-dirty the page so we notice. *)
    Vmem.Page_table.update t.pt vpn Vmem.Pte.clear_dirty;
    t.invalidate vpn;
    (* The guide trims the write-back for the cleaner as well as for
       eviction (§4.4: the cleaner writes only the used area). The
       caller guarantees there is at least one live segment. *)
    let segs_opt =
      match guide_segments t vpn with
      | Some [] -> assert false
      | other -> other
    in
    let base = Vmem.Addr.base vpn in
    (* Segments address the frame pool's slab directly (loff is a slab
       byte offset) — no per-writeback view allocation. *)
    let foff = Vmem.Frame.offset t.frames frame in
    let segs =
      match segs_opt with
      | Some segs ->
          List.map
            (fun (off, len) ->
              {
                Rdma.Qp.raddr = Int64.add base (Int64.of_int off);
                loff = foff + off;
                len;
              })
            segs
      | None ->
          [ { Rdma.Qp.raddr = base; loff = foff; len = Vmem.Addr.page_size } ]
    in
    let buf = Vmem.Frame.slab t.frames in
    (* Permanent write failure: nothing reached the memory node (the
       transfer only applies on success), so the remote copy is the
       consistent pre-write page. Re-dirty the PTE — clear_dirty above
       promised a write-back that never happened — and put the page
       back on the clock for a later attempt. Reclaim skips wb_inflight
       pages, so nobody can have dropped the frame meanwhile. A page
       that keeps failing is lost (Major_fault.writeback_failed). *)
    let on_error () =
      Sim.Int_table.remove t.wb_inflight vpn;
      Sim.Stats.cincr t.hot.c_wb_failures;
      Major_fault.writeback_failed t.wb_bound vpn;
      (match Vmem.Pte.tag (Vmem.Page_table.get t.pt vpn) with
      | Vmem.Pte.Local ->
          Vmem.Page_table.update t.pt vpn Vmem.Pte.set_dirty;
          enqueue t vpn
      | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Fetching
      | Vmem.Pte.Action ->
          ());
      Sim.Condvar.broadcast t.wb_done
    in
    Rdma.Qp.post_write ~on_error t.evict_qp ~segs ~buf ~on_complete:(fun () ->
        Sim.Int_table.remove t.wb_inflight vpn;
        Sim.Stats.cincr t.hot.c_writebacks;
        (if then_evict then
           let pte' = Vmem.Page_table.get t.pt vpn in
           match Vmem.Pte.tag pte' with
           | Vmem.Pte.Local when not (Vmem.Pte.dirty pte') ->
               let new_pte =
                 match segs_opt with
                 | Some segs -> Vmem.Pte.make_action ~payload:(log_vector t segs)
                 | None -> Vmem.Pte.make_remote ()
               in
               Vmem.Page_table.set t.pt vpn new_pte;
               t.invalidate vpn;
               Vmem.Frame.free t.frames (Vmem.Pte.frame pte');
               Sim.Stats.cincr t.hot.c_evictions;
               Sim.Condvar.broadcast t.frames_avail
           | Vmem.Pte.Local ->
               (* Re-dirtied while in flight: keep it resident. *)
               enqueue t vpn
           | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Fetching
           | Vmem.Pte.Action ->
               ());
        Sim.Condvar.broadcast t.wb_done)
  end

(* One clock step. Returns [true] if it made progress towards freeing
   a frame (evicted, or started an eviction write-back). *)
let clock_step t =
  match Clock.pop t.clock with
  | None -> false
  | Some vpn -> (
      let pte = Vmem.Page_table.get t.pt vpn in
      match Vmem.Pte.tag pte with
      | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Action ->
          (* Stale entry; page already gone. *)
          false
      | Vmem.Pte.Fetching ->
          enqueue t vpn;
          false
      | Vmem.Pte.Local ->
          if Sim.Int_table.mem t.wb_inflight vpn then begin
            enqueue t vpn;
            false
          end
          else if Vmem.Pte.accessed pte then begin
            (* Second chance: strip the accessed bit and recycle. *)
            Vmem.Page_table.update t.pt vpn Vmem.Pte.clear_accessed;
            t.invalidate vpn;
            enqueue t vpn;
            false
          end
          else if Vmem.Pte.dirty pte then begin
            (match guide_segments t vpn with
            | Some [] -> drop_without_write t vpn pte
            | Some _ | None -> writeback t vpn pte ~then_evict:true);
            true
          end
          else begin
            drop_without_write t vpn pte;
            true
          end)

let reclaim_until t target =
  let no_progress = ref 0 in
  let continue_ = ref true in
  while !continue_ && free_frames t < target do
    if clock_step t then no_progress := 0
    else begin
      incr no_progress;
      if !no_progress > Clock.length t.clock + 1 then
        if Sim.Int_table.length t.wb_inflight > 0 then begin
          (* Everything evictable is already being written back; wait
             for a completion rather than spinning. *)
          Sim.Condvar.wait t.wb_done;
          no_progress := 0
        end
        else begin
          Sim.Stats.cincr t.hot.c_reclaim_gave_up;
          continue_ := false
        end
    end;
    (* Model the per-page CPU cost of scanning/evicting. *)
    Sim.Engine.sleep t.eng (Sim.Time.ns Params.evict_page_cost_ns)
  done

let reclaimer_fiber t () =
  while t.running do
    if free_frames t < t.low then reclaim_until t t.high
    else Sim.Condvar.wait t.reclaim_work
  done

(* One cleaner pass: pop candidates in clock order and write back the
   first [cleaner_batch] eligible pages, the same pages a walk of the
   clock from its head would pick. Stale candidates (the VPN left the
   clock or was re-pushed under a newer sequence number) are dropped,
   as are pages no longer [Local] and dirty; a dirty page that is in
   flight or holds no live data stays a candidate for the next pass.
   Returns the number of pages written. *)
let clean_batch t =
  let written = ref 0 and kept = ref [] in
  while !written < Params.cleaner_batch && not (Dirty_index.is_empty t.dirty) do
    let seq = Dirty_index.min_seq t.dirty and vpn = Dirty_index.min_vpn t.dirty in
    Dirty_index.remove_min t.dirty;
    if Clock.flagged t.clock vpn seq then begin
      let pte = Vmem.Page_table.get t.pt vpn in
      match Vmem.Pte.tag pte with
      | Vmem.Pte.Local when Vmem.Pte.dirty pte ->
          if Sim.Int_table.mem t.wb_inflight vpn || no_live_data t vpn then
            kept := (seq, vpn) :: !kept
          else begin
            Clock.unflag t.clock vpn seq;
            writeback t vpn pte ~then_evict:false;
            incr written
          end
      | Vmem.Pte.Local | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Fetching
      | Vmem.Pte.Action ->
          Clock.unflag t.clock vpn seq
    end
  done;
  List.iter (fun (seq, vpn) -> Dirty_index.add t.dirty seq vpn) !kept;
  !written

let cleaner_fiber t () =
  while t.running do
    Sim.Engine.sleep t.eng Params.cleaner_period;
    if t.running then begin
      let written = clean_batch t in
      if written > 0 then Sim.Engine.sleep t.eng (Sim.Time.ns (written * 120))
    end
  done

let start t =
  if not t.running then begin
    t.running <- true;
    Sim.Engine.spawn t.eng ~name:"pm.reclaimer" (reclaimer_fiber t);
    Sim.Engine.spawn t.eng ~name:"pm.cleaner" (cleaner_fiber t)
  end

let stop t =
  t.running <- false;
  Sim.Condvar.broadcast t.reclaim_work

let try_alloc_frame t =
  let r = Vmem.Frame.alloc t.frames in
  if free_frames t < t.low then Sim.Condvar.broadcast t.reclaim_work;
  r

let alloc_frame t =
  match try_alloc_frame t with
  | Some f -> f
  | None ->
      Sim.Stats.cincr t.hot.c_reclaim_stalls;
      let started = Sim.Engine.now t.eng in
      let frame = ref None in
      Sim.Condvar.broadcast t.reclaim_work;
      Sim.Condvar.wait_for t.frames_avail (fun () ->
          match Vmem.Frame.alloc t.frames with
          | Some f ->
              frame := Some f;
              true
          | None ->
              Sim.Condvar.broadcast t.reclaim_work;
              false);
      let stalled = Sim.Time.sub (Sim.Engine.now t.eng) started in
      Sim.Stats.cadd t.hot.c_reclaim_stall_ns (Int64.to_int stalled);
      (match !frame with Some f -> f | None -> assert false)

let release_frame t frame =
  Vmem.Frame.free t.frames frame;
  Sim.Condvar.broadcast t.frames_avail

let quiesce t =
  Sim.Condvar.wait_for t.wb_done (fun () -> Sim.Int_table.length t.wb_inflight = 0)
