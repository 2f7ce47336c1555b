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
