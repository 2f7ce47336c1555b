type t = {
  eng : Sim.Engine.t;
  nic : Nic.t;
  bw : Bandwidth.t;
  stats : Sim.Stats.t;
  target : Qp.target;
  region : Region.t;
  rkey : int;
  huge_pages : bool;
  extra_completion_delay : Sim.Time.t;
}

(* Control path goes through virtio and the host driver: slow, but
   only paid at connection establishment (§5). *)
let setup_cost = Sim.Time.us 350

let connect ~eng ?nic_config ?faults ?(huge_pages = true)
    ?(extra_completion_delay = Sim.Time.zero) ?stats ~target ~size () =
  let nic = Nic.create ?config:nic_config ?faults () in
  let stats = match stats with Some s -> s | None -> Sim.Stats.create () in
  let bw = Bandwidth.create eng in
  let rkey = 0x1EAF in
  let region = Region.make ~rkey ~base:0L ~len:size in
  { eng; nic; bw; stats; target; region; rkey; huge_pages; extra_completion_delay }

let qp t ~name =
  Qp.create ~eng:t.eng ~nic:t.nic ~target:t.target ~region:t.region ~rkey:t.rkey
    ~bw:t.bw ~stats:t.stats ~huge_pages:t.huge_pages
    ~extra_completion_delay:t.extra_completion_delay ~name ()

let bandwidth t = t.bw
let stats t = t.stats
let region t = t.region
let huge_pages t = t.huge_pages
