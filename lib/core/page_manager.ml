(* Per-page state lives in the page's kernel word
   ([Vmem.Page_table.word]): bit 0 is set while the VPN is queued on
   the clock, bit 1 while it has a live candidate in the dirty index
   (its flag), bit 2 while a write-back of it is in flight, and bits
   3.. hold its clock push sequence number. *)
let w_queued = 1
let w_flag = 2
let w_wb = 4
let seq_shift = 3
let w_clock = lnot w_wb (* queued, flag and sequence number *)

(* The LRU clock: a FIFO ring of VPNs, its capacity a power of two.
   Sequence numbers increase from head to tail, so they order the
   clock. *)
module Clock = struct
  type t = {
    pt : Vmem.Page_table.t;
    mutable data : int array;
    mutable head : int;
    mutable len : int;
    mutable next_seq : int;
  }

  let create pt = { pt; data = Array.make 256 0; head = 0; len = 0; next_seq = 0 }
  let length t = t.len

  (* Set [vpn]'s flag and return its sequence number; -1 when it is not
     queued or already flagged. *)
  let flag t vpn =
    let w =
      Vmem.Page_table.update_word t.pt vpn ~test:(w_queued lor w_flag)
        ~expect:w_queued ~keep:(-1) ~set:w_flag
    in
    if w land (w_queued lor w_flag) = w_queued then w lsr seq_shift else -1

  (* [vpn] is still queued under [seq], with its flag set. *)
  let flagged t vpn seq =
    Vmem.Page_table.word t.pt vpn land w_clock
    = (seq lsl seq_shift) lor w_flag lor w_queued

  let unflag t vpn =
    ignore
      (Vmem.Page_table.update_word t.pt vpn ~test:0 ~expect:0
         ~keep:(lnot w_flag) ~set:0)

  let push t vpn =
    let w =
      Vmem.Page_table.update_word t.pt vpn ~test:w_queued ~expect:0 ~keep:w_wb
        ~set:((t.next_seq lsl seq_shift) lor w_queued)
    in
    if w land w_queued = 0 then begin
      let cap = Array.length t.data in
      if t.len = cap then begin
        let nd = Array.make (cap * 2) 0 in
        for i = 0 to t.len - 1 do
          nd.(i) <- t.data.((t.head + i) land (cap - 1))
        done;
        t.data <- nd;
        t.head <- 0
      end;
      t.data.((t.head + t.len) land (Array.length t.data - 1)) <- vpn;
      t.len <- t.len + 1;
      t.next_seq <- t.next_seq + 1
    end

  let pop t =
    if t.len = 0 then None
    else begin
      let vpn = t.data.(t.head) in
      t.head <- (t.head + 1) land (Array.length t.data - 1);
      t.len <- t.len - 1;
      ignore
        (Vmem.Page_table.update_word t.pt vpn ~test:0 ~expect:0 ~keep:w_wb
           ~set:0);
      Some vpn
    end

  let to_list t = List.init t.len (fun i -> t.data.((t.head + i) land (Array.length t.data - 1)))
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

type t = {
  eng : Sim.Engine.t;
  (* Reclaim-path stats cells, resolved once at [create]. *)
  c_wb_failures : Sim.Stats.counter;
  c_reclaim_gave_up : Sim.Stats.counter;
  c_reclaim_stalls : Sim.Stats.counter;
  c_reclaim_stall_ns : Sim.Stats.counter;
  pt : Vmem.Page_table.t;
  frames : Vmem.Frame.t;
  evict_qp : Rdma.Qp.t;
  wb : Writeback.t;
  clock : Clock.t;
  (* Invariant: every [Local] dirty page on the clock has exactly one
     live candidate here; stale ones are discarded when popped. *)
  dirty : Dirty_index.t;
  mutable wb_inflight : int; (* pages with [w_wb] set *)
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
  let frames_avail = Sim.Condvar.create eng in
  {
    eng;
    c_wb_failures = Sim.Stats.counter stats "writeback_failures";
    c_reclaim_gave_up = Sim.Stats.counter stats "reclaim_gave_up";
    c_reclaim_stalls = Sim.Stats.counter stats "reclaim_stalls";
    c_reclaim_stall_ns = Sim.Stats.counter stats "reclaim_stall_ns";
    pt;
    frames;
    evict_qp;
    wb = Writeback.create ~stats ~pt ~frames ~frames_avail ?reclaim_guide ();
    clock = Clock.create pt;
    dirty = Dirty_index.create ();
    wb_inflight = 0;
    frames_avail;
    reclaim_work = Sim.Condvar.create eng;
    wb_done = Sim.Condvar.create eng;
    running = false;
    low;
    high;
  }

let writeback t = t.wb
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
let writeback_in_flight t vpn = Vmem.Page_table.word t.pt vpn land w_wb <> 0

let set_in_flight t vpn =
  t.wb_inflight <- t.wb_inflight + 1;
  ignore
    (Vmem.Page_table.update_word t.pt vpn ~test:0 ~expect:0 ~keep:(-1)
       ~set:w_wb)

let clear_in_flight t vpn =
  t.wb_inflight <- t.wb_inflight - 1;
  ignore
    (Vmem.Page_table.update_word t.pt vpn ~test:0 ~expect:0
       ~keep:(lnot w_wb) ~set:0)

(* Write back dirty page [vpn] through live vector [vec]: the guide
   trims the cleaner's writes as well as eviction's (§4.4). Only the
   reclaimer's write-back ([then_evict]) drops the page; reclaim skips
   in-flight pages, so nobody else can drop its frame meanwhile. *)
let start_writeback t vpn pte vec ~then_evict =
  set_in_flight t vpn;
  let segs = Writeback.begin_ t.wb vpn pte vec in
  Rdma.Qp.post_write
    ~on_error:(fun () ->
      clear_in_flight t vpn;
      Sim.Stats.cincr t.c_wb_failures;
      if Writeback.failed t.wb vpn then enqueue t vpn;
      Sim.Condvar.broadcast t.wb_done)
    t.evict_qp ~segs ~buf:(Vmem.Frame.slab t.frames)
    ~on_complete:(fun () ->
      clear_in_flight t vpn;
      Writeback.written t.wb;
      (if then_evict then
         match Writeback.finish t.wb vpn vec with
         | Writeback.Kept -> enqueue t vpn
         | Writeback.Evicted | Writeback.Gone -> ());
      Sim.Condvar.broadcast t.wb_done)

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
          if writeback_in_flight t vpn then begin
            enqueue t vpn;
            false
          end
          else if Vmem.Pte.accessed pte then begin
            (* Second chance: strip the accessed bit and recycle. *)
            Vmem.Page_table.update t.pt vpn Vmem.Pte.clear_accessed;
            Writeback.invalidate t.wb vpn;
            enqueue t vpn;
            false
          end
          else begin
            (* A clean page's remote copy is current, and a page the
               guide says holds no live data needs none: drop either
               without RDMA. *)
            (match Writeback.guide_vector t.wb vpn with
            | (Some (_ :: _) | None) as vec when Vmem.Pte.dirty pte ->
                start_writeback t vpn pte vec ~then_evict:true
            | vec -> Writeback.unmap t.wb vpn ~frame:(Vmem.Pte.frame pte) vec);
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
        if t.wb_inflight > 0 then begin
          (* Everything evictable is already being written back; wait
             for a completion rather than spinning. *)
          Sim.Condvar.wait t.wb_done;
          no_progress := 0
        end
        else begin
          Sim.Stats.cincr t.c_reclaim_gave_up;
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
      | Vmem.Pte.Local when Vmem.Pte.dirty pte && writeback_in_flight t vpn ->
          kept := (seq, vpn) :: !kept
      | Vmem.Pte.Local when Vmem.Pte.dirty pte -> (
          match Writeback.guide_vector t.wb vpn with
          | Some [] -> kept := (seq, vpn) :: !kept
          | vec ->
              Clock.unflag t.clock vpn;
              start_writeback t vpn pte vec ~then_evict:false;
              incr written)
      | Vmem.Pte.Local | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Fetching
      | Vmem.Pte.Action ->
          Clock.unflag t.clock vpn
    end
  done;
  List.iter (fun (seq, vpn) -> Dirty_index.add t.dirty seq vpn) !kept;
  !written

let cleaner_fiber t () =
  while t.running do
    Sim.Engine.sleep t.eng Params.cleaner_period;
    if t.running then begin
      let written = clean_batch t in
      if written > 0 then
        Sim.Engine.sleep t.eng
          (Sim.Time.ns (written * Params.cleaner_page_write_ns))
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
      Sim.Stats.cincr t.c_reclaim_stalls;
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
      Sim.Stats.cadd t.c_reclaim_stall_ns (Int64.to_int stalled);
      (match !frame with Some f -> f | None -> assert false)

let release_frame t frame =
  Vmem.Frame.free t.frames frame;
  Sim.Condvar.broadcast t.frames_avail

let quiesce t =
  Sim.Condvar.wait_for t.wb_done (fun () -> t.wb_inflight = 0)
