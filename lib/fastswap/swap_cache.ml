type entry = { frame : int; mutable io_inflight : bool }

type t = { tbl : entry Sim.Int_table.t }

let create () = { tbl = Sim.Int_table.create 256 }
let find t vpn = Sim.Int_table.find_opt t.tbl vpn

let insert t vpn e =
  if Sim.Int_table.mem t.tbl vpn then invalid_arg "Swap_cache.insert: duplicate";
  Sim.Int_table.replace t.tbl vpn e

let remove t vpn = Sim.Int_table.remove t.tbl vpn
let mem t vpn = Sim.Int_table.mem t.tbl vpn
let size t = Sim.Int_table.length t.tbl

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
