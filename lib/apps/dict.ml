type t = {
  mem : Memif.t;
  buckets : int64;
  mask : int;
  mutable n : int;
  (* Reused by [key_equals] so chain walks don't allocate per probe;
     grown (rarely) to the largest key seen. *)
  mutable scratch : Bytes.t;
}

let entry_size = 24

let hash key =
  (* FNV-1a, truncated to OCaml's 63-bit int. *)
  let h = ref 0x3cbf29ce48422232 in
  for i = 0 to Bytes.length key - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get key i)) * 0x100000001b3 land max_int
  done;
  !h

let create (mem : Memif.t) ~size_hint =
  let rec pow2 v = if v >= size_hint then v else pow2 (v * 2) in
  let size = pow2 16 in
  let buckets = mem.Memif.malloc (size * 8) in
  (* Bucket array starts zeroed (fresh pages read as zero). *)
  { mem; buckets; mask = size - 1; n = 0; scratch = Bytes.create 64 }

let count t = t.n

let bucket_off t key = (hash key land t.mask) * 8

let entry_next t e = t.mem.Memif.read_u64_at e 0
let entry_key t e = t.mem.Memif.read_u64_at e 8
let entry_value t e = t.mem.Memif.read_u64_at e 16

(* Doubling growth keeps this on the cold-constructor path: it runs at
   most O(log max_key_len) times over a dict's lifetime. *)
let make_scratch len =
  let rec pow2 v = if v >= len then v else pow2 (v * 2) in
  Bytes.create (pow2 64)

let scratch t len =
  if Bytes.length t.scratch < len then t.scratch <- make_scratch len;
  t.scratch

let key_equals t e key =
  let kaddr = entry_key t e in
  let klen = Sds.len t.mem kaddr in
  if klen <> Bytes.length key then false
  else begin
    let b = scratch t klen in
    t.mem.Memif.read_bytes (Sds.data_addr kaddr) b 0 klen;
    (* [b] may be longer than the key, so compare exactly klen bytes;
       both hold at least klen. *)
    let i = ref 0 in
    while !i < klen && Char.equal (Bytes.unsafe_get b !i) (Bytes.unsafe_get key !i) do
      incr i
    done;
    !i = klen
  end

let find_entry t key =
  let rec walk e =
    if Int64.equal e 0L then None
    else if key_equals t e key then Some e
    else walk (entry_next t e)
  in
  walk (t.mem.Memif.read_u64_at t.buckets (bucket_off t key))

let insert t ~key ~value =
  match find_entry t key with
  | Some e -> t.mem.Memif.write_u64_at e 16 value
  | None ->
      let boff = bucket_off t key in
      let head = t.mem.Memif.read_u64_at t.buckets boff in
      let e = t.mem.Memif.malloc entry_size in
      let kaddr = Sds.create t.mem key ~len:(Bytes.length key) in
      t.mem.Memif.write_u64_at e 0 head;
      t.mem.Memif.write_u64_at e 8 kaddr;
      t.mem.Memif.write_u64_at e 16 value;
      t.mem.Memif.write_u64_at t.buckets boff e;
      t.n <- t.n + 1

let find t key =
  match find_entry t key with Some e -> Some (entry_value t e) | None -> None

let remove t key =
  let boff = bucket_off t key in
  let rec walk prev e =
    if Int64.equal e 0L then None
    else if key_equals t e key then begin
      let next = entry_next t e in
      (match prev with
      | None -> t.mem.Memif.write_u64_at t.buckets boff next
      | Some p -> t.mem.Memif.write_u64_at p 0 next);
      let v = entry_value t e in
      Sds.free t.mem (entry_key t e);
      t.mem.Memif.free e;
      t.n <- t.n - 1;
      Some v
    end
    else walk (Some e) (entry_next t e)
  in
  walk None (t.mem.Memif.read_u64_at t.buckets boff)
