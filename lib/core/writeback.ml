type t = {
  pt : Vmem.Page_table.t;
  frames : Vmem.Frame.t;
  frames_avail : Sim.Condvar.t;
  c_evictions : Sim.Stats.counter;
  c_writebacks : Sim.Stats.counter;
  bound : Major_fault.writebacks;
  reclaim_guide : Guide.reclaim_guide option;
  vector_log : (int * int) list Sim.Int_table.t;
  mutable next_log_id : int;
  mutable cpus : Cpu.t array;
}

let create ~stats ~pt ~frames ~frames_avail ?reclaim_guide () =
  let c_writebacks = Sim.Stats.counter stats "writebacks" in
  {
    pt;
    frames;
    frames_avail;
    c_evictions = Sim.Stats.counter stats "evictions";
    c_writebacks;
    bound = Major_fault.writebacks c_writebacks;
    reclaim_guide;
    vector_log = Sim.Int_table.create 64;
    next_log_id = 1;
    cpus = [||];
  }

let set_cpus t cpus = t.cpus <- cpus
let invalidate t vpn = Cpu.invalidate t.cpus vpn

let guide_vector t vpn =
  match t.reclaim_guide with
  | None -> None
  | Some g -> (
      match g.Guide.rg_live_segments (Vmem.Addr.base vpn) with
      | (None | Some []) as v -> v
      | Some segs -> (
          (* A full-page vector is just an ordinary page. *)
          match Guide.clamp_segments segs with
          | [ (0, len) ] when len = Vmem.Addr.page_size -> None
          | segs -> Some segs))

(* A top-level recursion: a [List.map] closure would allocate. *)
let rec vector_segs ~base ~foff = function
  | [] -> []
  | (off, len) :: rest ->
      { Rdma.Qp.raddr = Int64.add base (Int64.of_int off); loff = foff + off; len }
      :: vector_segs ~base ~foff rest

let segs ~base ~foff = function
  | Some segs -> vector_segs ~base ~foff segs
  | None -> [ { Rdma.Qp.raddr = base; loff = foff; len = Vmem.Addr.page_size } ]

let begin_ t vpn pte vec =
  Vmem.Page_table.update t.pt vpn Vmem.Pte.clear_dirty;
  invalidate t vpn;
  segs ~base:(Vmem.Addr.base vpn)
    ~foff:(Vmem.Frame.offset t.frames (Vmem.Pte.frame pte)) vec

let written t = Sim.Stats.cincr t.c_writebacks

let release t frame =
  Vmem.Frame.free t.frames frame;
  Sim.Stats.cincr t.c_evictions;
  Sim.Condvar.broadcast t.frames_avail

let unmap t vpn ~frame vec =
  (match vec with
  | Some segs ->
      let id = t.next_log_id in
      t.next_log_id <- id + 1;
      Sim.Int_table.replace t.vector_log id segs;
      Vmem.Page_table.set t.pt vpn (Vmem.Pte.make_action ~payload:id)
  | None -> Vmem.Page_table.set t.pt vpn (Vmem.Pte.make_remote ()));
  invalidate t vpn;
  release t frame

type outcome = Evicted | Kept | Gone

(* Check-then-act (the lost-update race): a fiber running between the
   re-read and the unmap could store into the page and lose it with
   the frame, so the fiber-atomic lint rule checks nothing here
   yields. *)
let finish t vpn vec =
  (let pte = Vmem.Page_table.get t.pt vpn in
   match Vmem.Pte.tag pte with
   | Vmem.Pte.Local when not (Vmem.Pte.dirty pte) ->
       unmap t vpn ~frame:(Vmem.Pte.frame pte) vec;
       Evicted
   | Vmem.Pte.Local -> Kept
   | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Fetching | Vmem.Pte.Action -> Gone)
  [@lint.atomic]

(* A transfer applies only on success, so the remote copy is the page
   before the WRITE: re-dirty for the write-back that never happened. *)
let failed t vpn =
  let local = Vmem.Pte.tag (Vmem.Page_table.get t.pt vpn) = Vmem.Pte.Local in
  if local then Vmem.Page_table.update t.pt vpn Vmem.Pte.set_dirty;
  Major_fault.writeback_failed t.bound vpn;
  local

let vector_segments t ~payload =
  match Sim.Int_table.find_opt t.vector_log payload with
  | Some segs ->
      Sim.Int_table.remove t.vector_log payload;
      segs
  | None -> invalid_arg "Writeback.vector_segments: unknown payload"
