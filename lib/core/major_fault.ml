type t = {
  c_major_faults : Sim.Stats.counter;
  c_fetch_retries : Sim.Stats.counter;
  c_zero_fill : Sim.Stats.counter;
  c_ph_exception : Sim.Stats.counter;
  c_ph_alloc : Sim.Stats.counter;
  c_ph_fetch : Sim.Stats.counter;
  c_ph_reclaim : Sim.Stats.counter;
  h_fault : Sim.Histogram.t;
  ob_major_faults : Obs.Registry.counter;
  obh_fault : Sim.Histogram.t;
  attr : Trace.Attr.t option;
}

let create ~system stats =
  let labels = [ ("system", system) ] in
  {
    c_major_faults = Sim.Stats.counter stats "major_faults";
    c_fetch_retries = Sim.Stats.counter stats "fault_fetch_retries";
    c_zero_fill = Sim.Stats.counter stats "zero_fill_faults";
    c_ph_exception = Sim.Stats.counter stats "ph_exception_ns";
    c_ph_alloc = Sim.Stats.counter stats "ph_alloc_ns";
    c_ph_fetch = Sim.Stats.counter stats "ph_fetch_ns";
    c_ph_reclaim = Sim.Stats.counter stats "ph_reclaim_ns";
    h_fault = Sim.Stats.histogram stats "fault_ns";
    ob_major_faults = Obs.Registry.counter ~name:"kernel_major_faults" ~labels ();
    obh_fault = Obs.Registry.histogram ~name:"kernel_fault_ns" ~labels ();
    attr = Trace.Attr.create stats;
  }

let count r =
  Sim.Stats.cincr r.c_major_faults;
  Obs.Registry.cincr r.ob_major_faults

let fetch_attrib r =
  match r.attr with None -> None | Some _ -> Some (Trace.fetch_attrib ())

let record r ~total_ns ~alloc_ns ~fetch_ns fa =
  Sim.Histogram.add r.h_fault total_ns;
  Sim.Histogram.add r.obh_fault total_ns;
  (match (r.attr, fa) with
  | Some attr, Some a -> Trace.Attr.record attr ~total_ns ~fetch:a
  | (Some _ | None), _ -> ());
  Sim.Stats.cadd r.c_ph_exception Vmem.Mmu.exception_ns;
  Sim.Stats.cadd r.c_ph_alloc alloc_ns;
  Sim.Stats.cadd r.c_ph_fetch fetch_ns

let retried r = Sim.Stats.cincr r.c_fetch_retries
let zero_filled r = Sim.Stats.cincr r.c_zero_fill
let reclaimed r ns = Sim.Stats.cadd r.c_ph_reclaim ns

let fetch_failed attempts addr =
  if attempts >= Params.fault_refetch_max then raise (Cpu.Page_lost addr)

(* Each page's failed write-backs since the last success anywhere: a
   success bumps [ok], and the next failure starts every count afresh,
   so the success path needs no hook. *)
type writebacks = {
  ok : Sim.Stats.counter;
  mutable ok_seen : int;
  mutable failed : int Sim.Int_table.t;
}

let writebacks ok = { ok; ok_seen = 0; failed = Sim.Int_table.create 8 }

let writeback_failed w vpn =
  if Sim.Stats.cget w.ok <> w.ok_seen then begin
    w.ok_seen <- Sim.Stats.cget w.ok;
    w.failed <- Sim.Int_table.create 8
  end;
  let n = 1 + Option.value (Sim.Int_table.find_opt w.failed vpn) ~default:0 in
  fetch_failed n (Vmem.Addr.base vpn);
  Sim.Int_table.replace w.failed vpn n
