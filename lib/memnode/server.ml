(* A server is the connect point the computing node dials: a replica
   group presented behind one flat target. The paper's single memory
   node is the one-shard, one-copy group. *)

type t = {
  eng : Sim.Engine.t;
  group : Replica_group.t;
  huge_pages : bool;
  faults : Faults.Plan.t option;
}

let create ~eng ~size ?(huge_pages = true) ?(shards = 1) ?(replication = 1)
    ?faults () =
  let config =
    {
      Replica_group.default_config with
      shards = Int.max shards replication;
      replication;
    }
  in
  {
    eng;
    group = Replica_group.create ~eng ~size ~config ?faults ();
    huge_pages;
    faults;
  }

let size t = Replica_group.size t.group

let connect t ?nic_config ?extra_completion_delay ?stats () =
  Option.iter (Replica_group.attach_stats t.group) stats;
  let fabric =
    Rdma.Fabric.connect ~eng:t.eng ?nic_config ?faults:t.faults
      ~huge_pages:t.huge_pages ?extra_completion_delay ?stats
      ~target:(Replica_group.target t.group) ~size:(size t) ()
  in
  (* Control path: one virtio round trip per connection. Advancing the
     clock here is fine because connection setup happens before any
     workload fiber starts. *)
  Sim.Engine.at t.eng
    (Sim.Time.add (Sim.Engine.now t.eng) Rdma.Fabric.setup_cost)
    (fun () -> ());
  fabric

let store t = Replica_group.store t.group
