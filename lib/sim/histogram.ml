let n_buckets = 1024

type t = {
  buckets : int array;
  mutable total : int;
  mutable minv : int;
  mutable maxv : int;
  mutable isum : int;
}

let create () =
  {
    buckets = Array.make n_buckets 0;
    total = 0;
    minv = max_int;
    maxv = 0;
    isum = 0;
  }

(* [v >= 1]: a binary search over the bit position, six halvings for
   any 63-bit int. Written out, not through a local helper: a closure
   over the refs would allocate on every sample. *)
let floor_log2 v =
  let v = ref v and k = ref 0 in
  if !v lsr 32 <> 0 then begin
    v := !v lsr 32;
    k := 32
  end;
  if !v lsr 16 <> 0 then begin
    v := !v lsr 16;
    k := !k + 16
  end;
  if !v lsr 8 <> 0 then begin
    v := !v lsr 8;
    k := !k + 8
  end;
  if !v lsr 4 <> 0 then begin
    v := !v lsr 4;
    k := !k + 4
  end;
  if !v lsr 2 <> 0 then begin
    v := !v lsr 2;
    k := !k + 2
  end;
  if !v lsr 1 <> 0 then !k + 1 else !k

let index_of v =
  if v < 16 then v
  else
    let k = floor_log2 v in
    let sub = (v lsr (k - 4)) land 15 in
    let idx = 16 + ((k - 4) * 16) + sub in
    if idx >= n_buckets then n_buckets - 1 else idx

let value_of idx =
  if idx < 16 then idx
  else
    let k = ((idx - 16) / 16) + 4 in
    let sub = (idx - 16) mod 16 in
    (* Midpoint of the bucket's value range. *)
    (1 lsl k) + (sub lsl (k - 4)) + (1 lsl (k - 4) / 2)

(* No float state: a mutable float field would box a fresh float on
   every sample. *)
let add t v =
  let v = if v < 0 then 0 else v in
  let i = index_of v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.total <- t.total + 1;
  if v < t.minv then t.minv <- v;
  if v > t.maxv then t.maxv <- v;
  t.isum <- t.isum + v

let count t = t.total
let min_value t = if t.total = 0 then 0 else t.minv
let max_value t = t.maxv
(* [float isum] is exactly the float running sum the samples would
   have accumulated while every partial sum stays below 2^53. *)
let mean t = if t.total = 0 then 0. else float_of_int t.isum /. float_of_int t.total
let sum t = t.isum

let quantile t q =
  if t.total = 0 then 0
  else if q <= 0. then t.minv
  else if q >= 1. then t.maxv
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = int_of_float (ceil (q *. float_of_int t.total)) in
    let target = if target < 1 then 1 else target in
    let acc = ref 0 and result = ref t.maxv and found = ref false in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + t.buckets.(i);
         if (not !found) && !acc >= target then begin
           result := value_of i;
           found := true;
           raise Exit
         end
       done
     with Exit -> ());
    (* Clamp to observed extremes so tiny histograms report exactly. *)
    Int.min (Int.max !result t.minv) t.maxv
  end

let merge_into ~dst src =
  Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  dst.total <- dst.total + src.total;
  if src.total > 0 then begin
    if src.minv < dst.minv then dst.minv <- src.minv;
    if src.maxv > dst.maxv then dst.maxv <- src.maxv;
    dst.isum <- dst.isum + src.isum
  end

let reset t =
  Array.fill t.buckets 0 n_buckets 0;
  t.total <- 0;
  t.minv <- max_int;
  t.maxv <- 0;
  t.isum <- 0
