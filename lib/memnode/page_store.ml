(* A sparse store: a two-level block directory over a small arena, so
   memory grows with what was written, never with [~size].

   - [top.(l)] is the leaf for the 2 MiB region [l], one entry per
     4 KiB block. Regions never written share [absent_leaf], and [top]
     grows to the highest region written.
   - A leaf entry is [-1] (never written, or dropped: reads as zeros)
     or the block's place in the arena, packed as [offset lsl seg_bits
     lor segment].
   - The arena is a few [Sim.Bigbuf] segments that double in size
     from 64 MiB; blocks are carved off the newest one. Each segment is
     a fresh mapping the kernel zero-fills as it is first touched (in
     2 MiB huge pages where it can), so a freshly carved block already
     reads as zeros: a partial first write needs no memset. Each
     segment is charged to the major GC, so a segment per block would
     cost far more collections than a handful of large ones.
   - [drop] zeroes a block and puts its arena place on [free], which
     the next first write takes before carving, so a block handed out
     again reads as zeros too.

   The directory is the one record of what the node holds: residency
   is a counter and [iter_touched] walks the leaves. *)

let block_shift = 12
let block_size = 1 lsl block_shift
let leaf_shift = 9
let leaf_mask = (1 lsl leaf_shift) - 1
let seg_bits = 6
let seg_mask = (1 lsl seg_bits) - 1
let absent_leaf = Array.make (1 lsl leaf_shift) (-1)

type t = {
  size : int64;
  mutable top : int array array;
  mutable segs : Sim.Bigbuf.t array;
  mutable used : int;  (* bytes carved off the newest segment *)
  mutable resident : int;
  mutable free : int list;  (* dropped blocks' arena places, zeroed *)
}

let create ~size =
  if Int64.compare size 0L < 0 then invalid_arg "Page_store.create: negative size";
  { size; top = [||]; segs = [||]; used = 0; resident = 0; free = [] }

let check t addr len =
  if len < 0 then invalid_arg "Page_store: negative length";
  if
    Int64.compare addr 0L < 0
    || Int64.compare (Int64.add addr (Int64.of_int len)) t.size > 0
  then invalid_arg (Printf.sprintf "Page_store: range [0x%Lx,+%d) out of bounds" addr len)

let slot t blk =
  let l = blk lsr leaf_shift in
  if l < Array.length t.top then t.top.(l).(blk land leaf_mask) else -1

(* Arena place for a block: a dropped one if any, else carved off the
   newest segment, opening one twice as large when it is full. Either
   way the block reads as zeros. *)
let place t =
  match t.free with
  | e :: rest ->
      t.free <- rest;
      e
  | [] ->
      let n = Array.length t.segs in
      if n = 0 || t.used = Sim.Bigbuf.length t.segs.(n - 1) then begin
        let len = if n = 0 then 1 lsl 26 else 2 * Sim.Bigbuf.length t.segs.(n - 1) in
        t.segs <- Array.append t.segs [| Sim.Bigbuf.create len |];
        t.used <- 0
      end;
      let e = (t.used lsl seg_bits) lor (Array.length t.segs - 1) in
      t.used <- t.used + block_size;
      e

(* First write to [blk]. *)
let alloc t blk =
  let e = place t in
  let l = blk lsr leaf_shift in
  let n = Array.length t.top in
  if l >= n then
    t.top <- Array.append t.top (Array.make (Int.max n (l + 1 - n)) absent_leaf);
  if t.top.(l) == absent_leaf then t.top.(l) <- Array.make (1 lsl leaf_shift) (-1);
  t.top.(l).(blk land leaf_mask) <- e;
  t.resident <- t.resident + 1;
  e

let rec read_blocks t a dst off len =
  if len > 0 then begin
    let inb = a land (block_size - 1) in
    let n = Int.min len (block_size - inb) in
    let e = slot t (a lsr block_shift) in
    if e < 0 then Sim.Bigbuf.fill dst ~off ~len:n '\000'
    else
      Sim.Bigbuf.blit t.segs.(e land seg_mask) ~src_off:((e lsr seg_bits) + inb)
        dst ~dst_off:off ~len:n;
    read_blocks t (a + n) dst (off + n) (len - n)
  end

let rec write_blocks t a src off len =
  if len > 0 then begin
    let inb = a land (block_size - 1) in
    let n = Int.min len (block_size - inb) in
    let blk = a lsr block_shift in
    let e = slot t blk in
    let e = if e >= 0 then e else alloc t blk in
    Sim.Bigbuf.blit src ~src_off:off t.segs.(e land seg_mask)
      ~dst_off:((e lsr seg_bits) + inb) ~len:n;
    write_blocks t (a + n) src (off + n) (len - n)
  end

let read t ~addr ~dst ~off ~len =
  check t addr len;
  read_blocks t (Int64.to_int addr) dst off len

let write t ~addr ~src ~off ~len =
  check t addr len;
  write_blocks t (Int64.to_int addr) src off len

let resident_blocks t = t.resident

let mem t blk = slot t blk >= 0

let drop t blk =
  let e = slot t blk in
  if e >= 0 then begin
    Sim.Bigbuf.fill t.segs.(e land seg_mask) ~off:(e lsr seg_bits) ~len:block_size
      '\000';
    t.top.(blk lsr leaf_shift).(blk land leaf_mask) <- -1;
    t.free <- e :: t.free;
    t.resident <- t.resident - 1
  end

(* Never written; compared against, never written to. *)
let zeros = Sim.Bigbuf.create block_size

let equal t blk ~inb ~src ~off ~len =
  if
    blk < 0 || inb < 0 || len < 0
    || inb + len > block_size
    || Int64.compare (Int64.of_int ((blk lsl block_shift) + inb + len)) t.size > 0
  then invalid_arg "Page_store.equal: span leaves its block or the store";
  let e = slot t blk in
  if e < 0 then Sim.Bigbuf.equal_range src ~a_off:off zeros ~b_off:inb ~len
  else
    Sim.Bigbuf.equal_range src ~a_off:off t.segs.(e land seg_mask)
      ~b_off:((e lsr seg_bits) + inb) ~len

(* Ascending block order — deterministic, so resync queues built from
   it replay bit-identically. *)
let iter_touched t f =
  Array.iteri
    (fun l leaf ->
      if leaf != absent_leaf then
        Array.iteri (fun i e -> if e >= 0 then f ((l lsl leaf_shift) lor i)) leaf)
    t.top

let target t =
  {
    Rdma.Qp.t_read = (fun addr dst off len -> read t ~addr ~dst ~off ~len);
    t_write = (fun addr src off len -> write t ~addr ~src ~off ~len);
  }
