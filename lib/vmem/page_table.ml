(* Levels from root: L4 -> L3 -> L2 -> leaf. Each directory node has
   512 slots. [vpn] is at most 36 bits (48-bit VA minus the 12-bit page
   offset). A leaf is 1,024 ints: the 512 PTEs, then the 512 kernel
   words of the same pages. *)

type node = Dir of node option array | Leaf of int array

(* [cache_keys.(c)] is the leaf number ([vpn lsr 9]) whose leaf sits in
   [cache_leaves.(c)], or -1. Leaves are never freed, so an entry can
   never go stale; the shared [absent] leaf is never cached. *)
type t = {
  root : node option array;
  cache_keys : int array;
  cache_leaves : int array array;
}

let fanout = 512
let cache_size = 64
let idx vpn level = (vpn lsr (9 * level)) land (fanout - 1)

(* Shared read-only leaf standing in for every absent one, so a lookup
   returns a leaf without allocating an option. Only readers ever see
   it: writers go through [materialize], which never returns it. *)
let absent = Array.make (2 * fanout) 0

let create () =
  {
    root = Array.make fanout None;
    cache_keys = Array.make cache_size (-1);
    cache_leaves = Array.make cache_size absent;
  }

let cache t vpn leaf =
  let c = (vpn lsr 9) land (cache_size - 1) in
  t.cache_keys.(c) <- vpn lsr 9;
  t.cache_leaves.(c) <- leaf

let rec find_leaf node vpn level =
  match node with
  | Leaf a -> a
  | Dir slots -> (
      match slots.(idx vpn level) with
      | None -> absent
      | Some child -> find_leaf child vpn (level - 1))

let walk t vpn =
  match t.root.(idx vpn 3) with
  | None -> absent
  | Some child ->
      let a = find_leaf child vpn 2 in
      if a != absent then cache t vpn a;
      a

(* The leaf holding [vpn], or [absent]. *)
let leaf t vpn =
  let c = (vpn lsr 9) land (cache_size - 1) in
  if Array.unsafe_get t.cache_keys c = vpn lsr 9 then
    Array.unsafe_get t.cache_leaves c
  else walk t vpn

let rec materialize node vpn level =
  match node with
  | Leaf a -> a
  | Dir slots -> (
      let i = idx vpn level in
      match slots.(i) with
      | Some child -> materialize child vpn (level - 1)
      | None ->
          let child =
            if level = 1 then Leaf (Array.make (2 * fanout) 0)
            else Dir (Array.make fanout None)
          in
          slots.(i) <- Some child;
          materialize child vpn (level - 1))

let materialize_walk t vpn =
  let i = idx vpn 3 in
  let node =
    match t.root.(i) with
    | Some n -> n
    | None ->
        let n = Dir (Array.make fanout None) in
        t.root.(i) <- Some n;
        n
  in
  let a = materialize node vpn 2 in
  cache t vpn a;
  a

(* The leaf holding [vpn], materializing the path. *)
let leaf_rw t vpn =
  let c = (vpn lsr 9) land (cache_size - 1) in
  if Array.unsafe_get t.cache_keys c = vpn lsr 9 then
    Array.unsafe_get t.cache_leaves c
  else materialize_walk t vpn

let get t vpn = Array.unsafe_get (leaf t vpn) (vpn land (fanout - 1))
let set t vpn pte = Array.unsafe_set (leaf_rw t vpn) (vpn land (fanout - 1)) pte

let update t vpn f =
  let a = leaf_rw t vpn and i = vpn land (fanout - 1) in
  Array.unsafe_set a i (f (Array.unsafe_get a i))

let leaf_slot t vpn = (leaf_rw t vpn, vpn land (fanout - 1))
let word t vpn = Array.unsafe_get (leaf t vpn) (fanout + (vpn land (fanout - 1)))

let set_word t vpn w =
  Array.unsafe_set (leaf_rw t vpn) (fanout + (vpn land (fanout - 1))) w

let update_word t vpn ~test ~expect ~keep ~set =
  let a = leaf t vpn and i = fanout + (vpn land (fanout - 1)) in
  let w = Array.unsafe_get a i in
  if w land test = expect then
    Array.unsafe_set (if a == absent then materialize_walk t vpn else a) i ((w land keep) lor set);
  w

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
    | Leaf a ->
        for i = 0 to fanout - 1 do
          if a.(i) <> Pte.zero then incr n
        done
    | Dir slots -> Array.iter (function None -> () | Some c -> walk c) slots
  in
  Array.iter (function None -> () | Some c -> walk c) t.root;
  !n
