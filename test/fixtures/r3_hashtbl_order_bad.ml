(* Lint fixture (never compiled): R3 — Hashtbl enumeration whose result
   escapes unsorted. Expected findings pinned by test_lint.ml. *)

let dump tbl = Hashtbl.iter (fun k v -> Printf.printf "%d %d\n" k v) tbl (* line 4 *)
let pairs tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []       (* line 5 *)
let keys tbl = Sim.Int_table.fold (fun k _ acc -> k :: acc) tbl []     (* line 6 *)
