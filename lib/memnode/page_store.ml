let block_size = 4096
let block_shift = 12

(* Dense off-heap slab instead of a hashtable of 4 KiB [bytes]
   blocks. The slab is lazily committed by the kernel (fresh anonymous
   mapping, see [Sim.Bigbuf.create]), so a paper-scale store costs
   physical memory only for blocks actually written — the same
   sparseness the hashtable bought, without per-block heap objects or
   hashing on the transfer path. Reads of never-written memory still
   observe zeros. [touched] tracks which blocks have been written
   (1 bit per block) purely for the [resident_blocks] diagnostic. *)
type t = {
  size : int64;
  slab : Sim.Bigbuf.t;
  touched : Bytes.t;
  mutable resident : int;
}

let create ~size =
  if Int64.compare size 0L < 0 then invalid_arg "Page_store.create: negative size";
  let bytes_ = Int64.to_int size in
  let blocks = (bytes_ + block_size - 1) / block_size in
  (* The slab before the bitmap: it is the request a host refuses. *)
  let slab =
    try Sim.Bigbuf.create bytes_
    with Out_of_memory ->
      failwith
        (Printf.sprintf
           "Page_store.create: cannot reserve %d bytes for the memory node's \
            page store; lower Server.create ~size (Harness.run ?remote_size)"
           bytes_)
  in
  { size; slab; touched = Bytes.make ((blocks + 7) / 8) '\000'; resident = 0 }

let size t = t.size

let check t addr len =
  if len < 0 then invalid_arg "Page_store: negative length";
  if
    Int64.compare addr 0L < 0
    || Int64.compare (Int64.add addr (Int64.of_int len)) t.size > 0
  then invalid_arg (Printf.sprintf "Page_store: range [0x%Lx,+%d) out of bounds" addr len)

let mark_touched t ~addr ~len =
  if len > 0 then begin
    let first = Int64.to_int (Int64.shift_right_logical addr block_shift) in
    let last =
      Int64.to_int
        (Int64.shift_right_logical
           (Int64.add addr (Int64.of_int (len - 1)))
           block_shift)
    in
    for idx = first to last do
      let byte = idx lsr 3 and bit = 1 lsl (idx land 7) in
      let v = Char.code (Bytes.unsafe_get t.touched byte) in
      if v land bit = 0 then begin
        Bytes.unsafe_set t.touched byte (Char.unsafe_chr (v lor bit));
        t.resident <- t.resident + 1
      end
    done
  end

let read t ~addr ~dst ~off ~len =
  check t addr len;
  Sim.Bigbuf.blit t.slab ~src_off:(Int64.to_int addr) dst ~dst_off:off ~len

let write t ~addr ~src ~off ~len =
  check t addr len;
  mark_touched t ~addr ~len;
  Sim.Bigbuf.blit src ~src_off:off t.slab ~dst_off:(Int64.to_int addr) ~len

let read_bytes t ~addr ~dst ~off ~len =
  check t addr len;
  Sim.Bigbuf.blit_to_bytes t.slab ~src_off:(Int64.to_int addr) dst ~dst_off:off
    ~len

let write_bytes t ~addr ~src ~off ~len =
  check t addr len;
  mark_touched t ~addr ~len;
  Sim.Bigbuf.blit_from_bytes src ~src_off:off t.slab
    ~dst_off:(Int64.to_int addr) ~len

let resident_blocks t = t.resident

(* Model a shard process dying with its DRAM: zero only the touched
   blocks (the slab's untouched extent is already zero) and forget
   them, so a recovered shard starts from fresh memory and must be
   re-replicated. *)
let reset t =
  let nbits = Bytes.length t.touched * 8 in
  for idx = 0 to nbits - 1 do
    let byte = idx lsr 3 and bit = 1 lsl (idx land 7) in
    if Char.code (Bytes.unsafe_get t.touched byte) land bit <> 0 then begin
      let off = idx * block_size in
      let len = Int.min block_size (Int64.to_int t.size - off) in
      Sim.Bigbuf.fill t.slab ~off ~len '\000'
    end
  done;
  Bytes.fill t.touched 0 (Bytes.length t.touched) '\000';
  t.resident <- 0

(* Ascending block order — deterministic, so resync queues built from
   it replay bit-identically. *)
let iter_touched t f =
  let nbits = Bytes.length t.touched * 8 in
  for idx = 0 to nbits - 1 do
    let byte = idx lsr 3 and bit = 1 lsl (idx land 7) in
    if Char.code (Bytes.unsafe_get t.touched byte) land bit <> 0 then f idx
  done

let target t =
  {
    Rdma.Qp.t_read = (fun addr dst off len -> read t ~addr ~dst ~off ~len);
    t_write = (fun addr src off len -> write t ~addr ~src ~off ~len);
  }
