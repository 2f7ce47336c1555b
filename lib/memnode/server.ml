(* A server is the connect point the computing node dials: either one
   addressable shard instance (the paper's single memory node) or a
   whole replica group presented behind the same flat target. The
   single-shard path is byte-for-byte the pre-replication code — the
   goldens pin that down. *)

type backend = Single of Page_store.t | Group of Replica_group.t

type t = {
  eng : Sim.Engine.t;
  backend : backend;
  shard_id : int;
  trk : int;
  huge_pages : bool;
  faults : Faults.Plan.t option;
}

let cat_memnode = Trace.category "memnode"

let track_of shard_id =
  if shard_id = 0 then Trace.track "memnode"
  else Trace.track (Printf.sprintf "memnode/shard%d" shard_id)

let create ~eng ~size ?(huge_pages = true) ?(shard_id = 0) ?faults () =
  if shard_id < 0 then invalid_arg "Server.create: negative shard id";
  {
    eng;
    backend = Single (Page_store.create ~size);
    shard_id;
    trk = track_of shard_id;
    huge_pages;
    faults;
  }

let create_replicated ~eng ~size ?(huge_pages = true)
    ?(config = Replica_group.default_config) ?faults () =
  {
    eng;
    backend = Group (Replica_group.create ~eng ~size ~config ?faults ());
    shard_id = 0;
    trk = track_of 0;
    huge_pages;
    faults;
  }

(* The single-instance path stays byte-for-byte the old one — the
   goldens pin it — so the group is engaged only when asked for. *)
let of_topology ~eng ~size ?(shards = 1) ?(replication = 1) ?faults () =
  let has_drill =
    match faults with
    | Some p -> Faults.Spec.has_drill (Faults.Plan.spec p)
    | None -> false
  in
  if shards > 1 || replication > 1 || has_drill then
    create_replicated ~eng ~size
      ~config:
        {
          Replica_group.default_config with
          shards = Int.max shards replication;
          replication;
        }
      ?faults ()
  else create ~eng ~size ?faults ()

(* One-sided accesses leave no software trace on the memory node — the
   RNIC serves them against registered memory (§5). The instants below
   are the observability stand-in for a bus analyzer on that node:
   they mark the store-side copy at completion time. *)
let traced_target trk shard_id store =
  let base = Page_store.target store in
  (* Observatory: the single-instance server exports the same labeled
     family as the replica group, with its one shard id — reports keep
     a uniform per-shard schema whether or not replication is on. *)
  let ob metric =
    Obs.Registry.counter ~name:metric
      ~labels:[ ("shard", string_of_int shard_id) ]
      ()
  in
  let ob_reads = ob "repl_shard_reads" and ob_writes = ob "repl_shard_writes" in
  {
    Rdma.Qp.t_read =
      (fun raddr buf off len ->
        Obs.Registry.cincr ob_reads;
        if Trace.enabled cat_memnode then
          Trace.instant cat_memnode ~name:"page_read" ~track:trk
            ~args:[ ("len", Trace.I len) ]
            ();
        base.Rdma.Qp.t_read raddr buf off len);
    t_write =
      (fun raddr buf off len ->
        Obs.Registry.cincr ob_writes;
        if Trace.enabled cat_memnode then
          Trace.instant cat_memnode ~name:"page_write" ~track:trk
            ~args:[ ("len", Trace.I len) ]
            ();
        base.Rdma.Qp.t_write raddr buf off len);
  }

let target t =
  match t.backend with
  | Single store -> traced_target t.trk t.shard_id store
  | Group g -> Replica_group.target g (* per-shard instants inside *)

let size t =
  match t.backend with
  | Single store -> Page_store.size store
  | Group g -> Replica_group.size g

let connect t ?nic_config ?extra_completion_delay ?stats ?bw_bucket () =
  (match (t.backend, stats) with
  | Group g, Some st -> Replica_group.attach_stats g st
  | (Group _ | Single _), _ -> ());
  let fabric =
    Rdma.Fabric.connect ~eng:t.eng ?nic_config ?faults:t.faults
      ~huge_pages:t.huge_pages ?extra_completion_delay ?stats ?bw_bucket
      ~target:(target t) ~size:(size t) ()
  in
  (* Control path: one virtio round trip per connection. Advancing the
     clock here is fine because connection setup happens before any
     workload fiber starts. *)
  Sim.Engine.at t.eng
    (Sim.Time.add (Sim.Engine.now t.eng) Rdma.Fabric.setup_cost)
    (fun () -> ());
  fabric

let store t =
  match t.backend with
  | Single store -> store
  | Group g -> Replica_group.store g 0

let shard_id t = t.shard_id
let group t = match t.backend with Group g -> Some g | Single _ -> None
