(* Levels from root: L4 -> L3 -> L2 -> leaf. Each node has 512 slots.
   [vpn] is at most 36 bits (48-bit VA minus the 12-bit page offset). *)

type node = Dir of node option array | Leaf of Pte.t array

type t = { root : node option array }

let fanout = 512
let idx vpn level = (vpn lsr (9 * level)) land (fanout - 1)
let create () = { root = Array.make fanout None }

(* Shared read-only leaf standing in for every absent one, so a lookup
   returns a leaf without allocating an option. Only readers ever see
   it: [set]/[update] go through [materialize], which never returns it. *)
let absent = Array.make fanout Pte.zero

let rec find_leaf node vpn level =
  match node with
  | Leaf a -> a
  | Dir slots -> (
      match slots.(idx vpn level) with
      | None -> absent
      | Some child -> find_leaf child vpn (level - 1))

let leaf t vpn =
  match t.root.(idx vpn 3) with
  | None -> absent
  | Some child -> find_leaf child vpn 2

let get t vpn = (leaf t vpn).(idx vpn 0)

let rec materialize node vpn level =
  match node with
  | Leaf a -> a
  | Dir slots -> (
      let i = idx vpn level in
      match slots.(i) with
      | Some child -> materialize child vpn (level - 1)
      | None ->
          let child =
            if level = 1 then Leaf (Array.make fanout Pte.zero)
            else Dir (Array.make fanout None)
          in
          slots.(i) <- Some child;
          materialize child vpn (level - 1))

let leaf_slot t vpn =
  let i = idx vpn 3 in
  let node =
    match t.root.(i) with
    | Some n -> n
    | None ->
        let n = Dir (Array.make fanout None) in
        t.root.(i) <- Some n;
        n
  in
  (materialize node vpn 2, idx vpn 0)

let set t vpn pte =
  let leaf, i = leaf_slot t vpn in
  leaf.(i) <- pte

let update t vpn f =
  let leaf, i = leaf_slot t vpn in
  leaf.(i) <- f leaf.(i)

let iter_range t ~vpn ~count f =
  let stop = vpn + count in
  let v = ref vpn in
  while !v < stop do
    (* An absent leaf reads as all [Pte.zero]. *)
    let a = leaf t !v in
    let upto = Int.min (((!v lsr 9) + 1) lsl 9) stop in
    for u = !v to upto - 1 do
      f u a.(u land (fanout - 1))
    done;
    v := upto
  done

let count_mapped t =
  let n = ref 0 in
  let rec walk = function
    | Leaf a -> Array.iter (fun p -> if p <> Pte.zero then incr n) a
    | Dir slots -> Array.iter (function None -> () | Some c -> walk c) slots
  in
  Array.iter (function None -> () | Some c -> walk c) t.root;
  !n
