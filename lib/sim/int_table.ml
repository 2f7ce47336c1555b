type 'a t = {
  mutable keys : int array; (* [empty] in free slots *)
  mutable vals : 'a array; (* [[||]] until the first insert *)
  mutable size : int;
}

let empty = min_int

(* Multiplicative hash; the caller masks the low bits. Keys that differ
   only above bit 46 share a home slot in any table under 2^31 slots. *)
let hash k = (k * 0x9E3779B1) lsr 16

let check k = if k = empty then invalid_arg "Int_table: min_int key"

let create n =
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap empty; vals = [||]; size = 0 }

let length t = t.size

(* Top-level, not a local closure, so a lookup allocates nothing. *)
let rec probe keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = k || x = empty then i else probe keys mask k ((i + 1) land mask)

(* The slot holding [k], else the empty slot that ends its probe run. *)
let slot t k =
  check k;
  let mask = Array.length t.keys - 1 in
  probe t.keys mask k (hash k land mask)

let mem t k = t.keys.(slot t k) = k

let find_opt t k =
  let i = slot t k in
  if t.keys.(i) = k then Some t.vals.(i) else None

(* Double the capacity, so the load factor stays at most 1/2. *)
let grow t =
  let okeys = t.keys and ovals = t.vals in
  let cap = 2 * Array.length okeys in
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap ovals.(0);
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = slot t k in
        t.keys.(i) <- k;
        t.vals.(i) <- ovals.(j)
      end)
    okeys

let replace t k v =
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) v;
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.keys then grow t
  end

(* Backward-shift deletion: walk the rest of the probe run and move
   each entry whose home slot does not lie cyclically in (hole, j]
   back into the hole, so every remaining key stays reachable from its
   home slot without tombstones. *)
let remove t k =
  let i = slot t k in
  let keys = t.keys and vals = t.vals in
  if keys.(i) = k then begin
    let mask = Array.length keys - 1 in
    t.size <- t.size - 1;
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> empty do
      let home = hash keys.(!j) land mask in
      if (!j - home) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- keys.(!j);
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty
  end

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k <> empty then acc := f k t.vals.(i) !acc) t.keys;
  !acc
