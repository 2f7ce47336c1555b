type entry = { frame : int; mutable io_inflight : bool }

type t = {
  tbl : entry Sim.Int_table.t;
  order : int Queue.t; (* insertion order; may contain stale vpns *)
}

let create () = { tbl = Sim.Int_table.create 256; order = Queue.create () }
let find t vpn = Sim.Int_table.find_opt t.tbl vpn

let insert t vpn e =
  if Sim.Int_table.mem t.tbl vpn then invalid_arg "Swap_cache.insert: duplicate";
  Sim.Int_table.replace t.tbl vpn e;
  Queue.push vpn t.order

let remove t vpn = Sim.Int_table.remove t.tbl vpn
let mem t vpn = Sim.Int_table.mem t.tbl vpn
let size t = Sim.Int_table.length t.tbl

let pop_idle t =
  (* Scan from the oldest insertion; drop stale queue entries as we
     go. Entries with IO in flight are re-queued. *)
  let rec go tried =
    if tried > Queue.length t.order then None
    else
      match Queue.take_opt t.order with
      | None -> None
      | Some vpn -> (
          match Sim.Int_table.find_opt t.tbl vpn with
          | None -> go tried (* stale; consumed by a minor fault *)
          | Some e when e.io_inflight ->
              Queue.push vpn t.order;
              go (tried + 1)
          | Some e ->
              Sim.Int_table.remove t.tbl vpn;
              Some (vpn, e))
  in
  go 0

(* Iterate in ascending-vpn order, not bucket order: callers must see
   the same sequence whatever the insertion history, or sim decisions
   driven by a sweep (writeback scans, shutdown flushes) would drift
   run to run. *)
let iter t f =
  Sim.Int_table.fold (fun vpn _ acc -> vpn :: acc) t.tbl []
  |> List.sort Int.compare
  |> List.iter (fun vpn ->
         (* Re-look-up: [f] on an earlier key may have removed this one. *)
         match Sim.Int_table.find_opt t.tbl vpn with
         | Some e -> f vpn e
         | None -> ())
