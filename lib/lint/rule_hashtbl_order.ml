(* R3 hashtbl-order: Hashtbl.iter/fold (and Sim.Int_table.fold)
   enumerate buckets in an order
   that depends on insertion history and the hash function — any sim
   decision or report derived from it drifts silently when keys change.
   The rule demands that a function using Hashtbl.iter/fold also sorts
   (List.sort / stable_sort / sort_uniq, or Array.sort) — the standard
   shape being `Hashtbl.fold (fun k v acc -> ...) t [] |> List.sort
   cmp` — or carries a [@lint.allow "hashtbl-order"] with a proof the
   consumer is order-insensitive (e.g. zeroing every cell).

   "Same function" is approximated as "some enclosing value binding's
   subtree contains a sort application": precise data-flow would need
   typed ASTs, and the approximation is exact for every shape this
   codebase uses. *)

(* Bind our sibling Config before Ppxlib shadows it with its own. *)
module Cfg = Config
open Ppxlib

let id = "hashtbl-order"

let doc =
  "Hashtbl.iter/fold results must be sorted in the same function (or carry a \
   justified [@lint.allow]): bucket order is not deterministic under refactoring"

let is_iter_fold p =
  match p with
  | [ "Hashtbl"; ("iter" | "fold") ] -> true
  | [ _; "Hashtbl"; ("iter" | "fold") ] -> true (* e.g. MoreLabels.Hashtbl *)
  (* Sim.Int_table visits slots in an order set by insertion history
     and its hash, exactly like Hashtbl's buckets. *)
  | [ "Int_table"; "fold" ] | [ _; "Int_table"; "fold" ] -> true
  | _ -> false

let is_sort p =
  match p with
  | [ "List"; ("sort" | "stable_sort" | "sort_uniq") ] -> true
  | [ "Array"; ("sort" | "stable_sort") ] -> true
  | _ -> false

(* Does this expression subtree apply a sort? Used by the driver when it
   enters a value binding. *)
let contains_sort (e : expression) : bool =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        if is_sort (Rule.path_of_expr e) then found := true;
        if not !found then super#expression e
    end
  in
  it#expression e;
  !found

let check ~ctx:(_ : Cfg.ctx) ~sort_in_scope (e : expression) : Rule.site list =
  if sort_in_scope then []
  else if is_iter_fold (Rule.path_of_expr e) then
    [
      ( id,
        e.pexp_loc,
        "Hashtbl iteration order is not deterministic under refactoring; sort the \
         result in this function or suppress with a proof of order-insensitivity" );
    ]
  else []
