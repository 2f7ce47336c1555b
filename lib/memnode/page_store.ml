(* A sparse store: a two-level block directory over a small arena, so
   memory grows with what was written, never with [~size], and each
   block takes only the room its bytes need.

   - [top.(l)] is the leaf for the 2 MiB region [l], one entry per
     4 KiB block. Regions never written share [absent_leaf], and [top]
     grows to the highest region written.
   - A resident block is held in a slot of the smallest of four size
     classes (64 B, 256 B, 1 KiB, 4 KiB) that covers its used length:
     the offset of its last nonzero byte, plus one. The slot holds the
     block's first [capacity] bytes; the bytes past it read as zeros.
     A block written with zeros only is still resident, in a 64 B
     slot: residency means "written and not dropped", as it always has.
   - A leaf entry is [-1] (never written, or dropped: reads as zeros)
     or the block's slot, packed as [offset lsl off_shift lor class
     lsl seg_bits lor segment].
   - The arena is a few [Sim.Bigbuf] segments that double in size
     from 64 MiB; slots of every class are carved off the newest one
     by one bump pointer. Each segment is a fresh mapping the kernel
     zero-fills as it is first touched (in 2 MiB huge pages where it
     can), so a freshly carved slot already reads as zeros. Each
     segment is charged to the major GC, so a segment per block would
     cost far more collections than a handful of large ones; and an
     arena per class would keep a partly filled huge page per class.
   - A slot given up ([drop], or a write that moves its block to
     another class) is zeroed and pushed on its class's free stack,
     which the next slot of that class is taken from before carving.
     A stack is an int array that doubles when a release finds it
     full, so releases allocate nothing but that rare copy; sizing it
     up front for every slot carved would put a 1 MiB array on the
     major heap of a run that never releases one (a sequential
     overwrite), and a bigger heap slows every boot after it.

   A write of a whole block re-classes it, so it may shrink. A partial
   write whose nonzero bytes reach past the slot promotes the block:
   its held bytes are copied into a larger slot, and the old one is
   released. Any other partial write lands in place.

   An RDMA WRITE stages its payload here when it is posted: [stage]
   copies the payload's used bytes into a slot of the class covering
   them, the same slot a whole-block write would fill, and hands the
   slot out as the WR's handle. At completion a whole-block payload is
   adopted (the leaf entry points at the staged slot, and the replaced
   slot is released), so the page's bytes are copied once, at post.
   Any other payload lands from its staged slot as a write does, and
   the slot is released. Staged slots are not resident and not held
   until adopted; [staged] counts them.

   The directory is the one record of what the node holds: residency
   is a counter and [iter_touched] walks the leaves. *)

let block_shift = 12
let block_size = 1 lsl block_shift
let leaf_shift = 9
let leaf_mask = (1 lsl leaf_shift) - 1
let seg_bits = 6
let seg_mask = (1 lsl seg_bits) - 1
let off_shift = seg_bits + 2
let classes = 4
let absent_leaf = Array.make (1 lsl leaf_shift) (-1)

(* Class [c] holds 64 B, 256 B, 1 KiB or 4 KiB. *)
let[@inline] capacity c = 64 lsl (2 * c)

(* The smallest class that covers a used length. *)
let class_of used =
  if used <= 64 then 0 else if used <= 256 then 1 else if used <= 1024 then 2 else 3

let[@inline] cls e = (e lsr seg_bits) land (classes - 1)
let[@inline] base e = e lsr off_shift

type t = {
  size : int64;
  mutable top : int array array;
  mutable segs : Sim.Bigbuf.t array;
  mutable used : int;  (* bytes carved off the newest segment *)
  mutable resident : int;
  mutable held : int;  (* capacity of the slots of resident blocks *)
  mutable staged : int;  (* slots handed out by [stage], not yet landed *)
  free : int array array;  (* per class: released slots, zeroed *)
  nfree : int array;  (* per class: depth of its [free] stack *)
}

let create ~size =
  if Int64.compare size 0L < 0 then invalid_arg "Page_store.create: negative size";
  {
    size;
    top = [||];
    segs = [||];
    used = 0;
    resident = 0;
    held = 0;
    staged = 0;
    free = Array.make classes [||];
    nfree = Array.make classes 0;
  }

let check t addr len =
  if len < 0 then invalid_arg "Page_store: negative length";
  if
    Int64.compare addr 0L < 0
    || Int64.compare (Int64.add addr (Int64.of_int len)) t.size > 0
  then invalid_arg (Printf.sprintf "Page_store: range [0x%Lx,+%d) out of bounds" addr len)

let slot t blk =
  let l = blk lsr leaf_shift in
  if l < Array.length t.top then t.top.(l).(blk land leaf_mask) else -1

let[@inline] seg t e = t.segs.(e land seg_mask)

(* A zeroed slot of class [c]: a released one if any, else carved off
   the newest segment, opening one twice as large when the slot does
   not fit. *)
let place t c =
  let n = t.nfree.(c) in
  if n > 0 then begin
    t.nfree.(c) <- n - 1;
    t.free.(c).(n - 1)
  end
  else begin
    let cap = capacity c in
    let nseg = Array.length t.segs in
    if nseg = 0 || t.used + cap > Sim.Bigbuf.length t.segs.(nseg - 1) then begin
      let len = if nseg = 0 then 1 lsl 26 else 2 * Sim.Bigbuf.length t.segs.(nseg - 1) in
      t.segs <- Array.append t.segs [| Sim.Bigbuf.create len |];
      t.used <- 0
    end;
    let e = (t.used lsl off_shift) lor (c lsl seg_bits) lor (Array.length t.segs - 1) in
    t.used <- t.used + cap;
    e
  end

(* Zero the slot [e] and put it back on its class's stack, doubling
   the stack when it is full. *)
let free_slot t e =
  let c = cls e in
  Sim.Bigbuf.fill (seg t e) ~off:(base e) ~len:(capacity c) '\000';
  let n = t.nfree.(c) in
  if n = Array.length t.free.(c) then begin
    let a = Array.make (Int.max 64 (2 * n)) 0 in
    Array.blit t.free.(c) 0 a 0 n;
    t.free.(c) <- a
  end;
  t.free.(c).(n) <- e;
  t.nfree.(c) <- n + 1

(* A resident block gives up its slot [e]. *)
let release t e =
  t.held <- t.held - capacity (cls e);
  free_slot t e

let set_slot t blk e =
  let l = blk lsr leaf_shift in
  let n = Array.length t.top in
  if l >= n then
    t.top <- Array.append t.top (Array.make (Int.max n (l + 1 - n)) absent_leaf);
  if t.top.(l) == absent_leaf then t.top.(l) <- Array.make (1 lsl leaf_shift) (-1);
  t.top.(l).(blk land leaf_mask) <- e

(* How many of the bytes [inb, inb+len) of the block in slot [e] the
   slot holds; the rest read as zeros. *)
let[@inline] held_part e inb len =
  if e < 0 then 0 else Int.max 0 (Int.min len (capacity (cls e) - inb))

let rec read_blocks t a dst off len =
  if len > 0 then begin
    let inb = a land (block_size - 1) in
    let n = Int.min len (block_size - inb) in
    let e = slot t (a lsr block_shift) in
    let h = held_part e inb n in
    if h > 0 then Sim.Bigbuf.blit (seg t e) ~src_off:(base e + inb) dst ~dst_off:off ~len:h;
    if h < n then Sim.Bigbuf.fill dst ~off:(off + h) ~len:(n - h) '\000';
    read_blocks t (a + n) dst (off + n) (len - n)
  end

(* Write [n] bytes at [inb] in block [blk]: the first [held] of them
   from [src] at [off], the rest zeros. The block keeps its slot
   unless this is its first write, a whole-block write of a used
   length another class covers best, or a partial write whose nonzero
   bytes reach past the slot; then it moves to a fresh slot of the
   class covering the write's reach, taking along the bytes a partial
   write leaves standing. *)
let write_block t blk inb src off n held =
  let u = if held = 0 then 0 else Sim.Bigbuf.used src ~off ~len:held in
  let reach = if u = 0 then 0 else inb + u in
  let e = slot t blk in
  let stays =
    e >= 0
    && if n = block_size then cls e = class_of reach else reach <= capacity (cls e)
  in
  let e =
    if stays then e
    else begin
      let e' = place t (class_of reach) in
      if e < 0 then t.resident <- t.resident + 1
      else begin
        if n < block_size then
          Sim.Bigbuf.blit (seg t e) ~src_off:(base e) (seg t e') ~dst_off:(base e')
            ~len:(capacity (cls e));
        release t e
      end;
      t.held <- t.held + capacity (cls e');
      set_slot t blk e';
      e'
    end
  in
  let h = held_part e inb n in
  let m = Int.min h held in
  if m > 0 then Sim.Bigbuf.blit src ~src_off:off (seg t e) ~dst_off:(base e + inb) ~len:m;
  if h > m then Sim.Bigbuf.fill (seg t e) ~off:(base e + inb + m) ~len:(h - m) '\000'

let rec write_blocks t a src off len =
  if len > 0 then begin
    let inb = a land (block_size - 1) in
    let n = Int.min len (block_size - inb) in
    write_block t (a lsr block_shift) inb src off n n;
    write_blocks t (a + n) src (off + n) (len - n)
  end

let read t ~addr ~dst ~off ~len =
  check t addr len;
  read_blocks t (Int64.to_int addr) dst off len

let write t ~addr ~src ~off ~len =
  check t addr len;
  write_blocks t (Int64.to_int addr) src off len

let resident_blocks t = t.resident
let held_bytes t = t.held

let mem t blk = slot t blk >= 0

let drop t blk =
  let e = slot t blk in
  if e >= 0 then begin
    release t e;
    t.top.(blk lsr leaf_shift).(blk land leaf_mask) <- -1;
    t.resident <- t.resident - 1
  end

(* -- staged WRITE payloads ----------------------------------------- *)

let stage t ~src ~off ~len =
  if len < 0 || len > block_size then invalid_arg "Page_store.stage: length outside a block";
  let u = Sim.Bigbuf.used src ~off ~len in
  let e = place t (class_of u) in
  if u > 0 then Sim.Bigbuf.blit src ~src_off:off (seg t e) ~dst_off:(base e) ~len:u;
  t.staged <- t.staged + 1;
  e

let staged t = t.staged

let unstage t h =
  t.staged <- t.staged - 1;
  free_slot t h

(* Bytes of the staged payload [h] from [soff] on, of the [len]
   wanted, that its slot holds; the rest are zeros. *)
let[@inline] staged_part h soff len = Int.max 0 (Int.min len (capacity (cls h) - soff))

(* In place: [memcmp] over the part both slots hold, then a check that
   the rest of the one that holds more is zeros. *)
let equal t blk ~inb h ~soff ~len =
  if
    blk < 0 || inb < 0 || len < 0
    || inb + len > block_size
    || Int64.compare (Int64.of_int ((blk lsl block_shift) + inb + len)) t.size > 0
  then invalid_arg "Page_store.equal: span leaves its block or the store";
  let e = slot t blk in
  let bh = held_part e inb len and sh = staged_part h soff len in
  let m = Int.min bh sh in
  (m = 0
  || Sim.Bigbuf.equal_range (seg t h) ~a_off:(base h + soff) (seg t e) ~b_off:(base e + inb)
       ~len:m)
  && (sh <= m || Sim.Bigbuf.used (seg t h) ~off:(base h + soff + m) ~len:(sh - m) = 0)
  && (bh <= m || Sim.Bigbuf.used (seg t e) ~off:(base e + inb + m) ~len:(bh - m) = 0)

let write_staged t ~addr h ~soff ~len =
  check t addr len;
  let a = Int64.to_int addr in
  let inb = a land (block_size - 1) in
  if inb + len > block_size then invalid_arg "Page_store.write_staged: span leaves its block";
  if len > 0 then
    write_block t (a lsr block_shift) inb (seg t h) (base h + soff) len
      (staged_part h soff len)

let adopt t blk h =
  let e = slot t blk in
  if e < 0 then t.resident <- t.resident + 1 else release t e;
  t.staged <- t.staged - 1;
  t.held <- t.held + capacity (cls h);
  set_slot t blk h

let land_staged t ~addr h ~len =
  let a = Int64.to_int addr in
  if len = block_size && a land (block_size - 1) = 0 then begin
    check t addr len;
    adopt t (a lsr block_shift) h
  end
  else begin
    write_staged t ~addr h ~soff:0 ~len;
    unstage t h
  end

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
    t_stage = (fun src off len -> stage t ~src ~off ~len);
    t_land = (fun addr h len -> land_staged t ~addr h ~len);
    t_unstage = (fun h -> unstage t h);
  }
