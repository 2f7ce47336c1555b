(* Lint fixture (never compiled): the fixed version of
   r3_hashtbl_order_bad.ml — enumeration is sorted in the same
   function before anything can observe bucket order. *)

let pairs tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let dump tbl =
  List.iter (fun (k, v) -> Printf.printf "%d %d\n" k v) (pairs tbl)

let keys tbl =
  Sim.Int_table.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare
