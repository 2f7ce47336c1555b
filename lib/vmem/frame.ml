(* The frame pool is one flat off-heap slab ([Sim.Bigbuf]) addressed
   by byte offset, not a [bytes array]: at paper scale (8 GB local
   memory = 2 M frames) per-page heap objects would both bloat the GC
   root set and force a [Bytes.create] per copy. Frame [f]'s payload
   lives at slab offset [f * page_size]. *)

(* Frames are handed out freed-first, LIFO, then never-used ones in
   ascending order: [free_stack] holds only frames given back, and
   [fresh] is a bump pointer over the rest, so building a pool touches
   no per-frame entry. *)
type t = {
  total : int;
  slab : Sim.Bigbuf.t;
  free_stack : int array;
  mutable free_top : int; (* number of freed frames on the stack *)
  mutable fresh : int; (* frames [fresh, total) were never allocated *)
  in_use : Bytes.t; (* 1 byte per frame: 0 = free, 1 = used *)
}

let create ~frames =
  if frames <= 0 then invalid_arg "Frame.create: need at least one frame";
  (* The slab before the per-frame arrays: it is the request a host
     refuses. *)
  let bytes_ = frames * Addr.page_size in
  let slab =
    try Sim.Bigbuf.create bytes_
    with Out_of_memory ->
      failwith
        (Printf.sprintf
           "Frame.create: cannot reserve %d bytes for %d local frames; lower \
            the local memory size (local_mem_bytes, Harness.run ~local_mem)"
           bytes_ frames)
  in
  {
    total = frames;
    slab;
    free_stack = Array.make frames 0;
    free_top = 0;
    fresh = 0;
    in_use = Bytes.make frames '\000';
  }

let total t = t.total
let free_count t = t.free_top + t.total - t.fresh

(* Frames are handed out dirty: every consumer either fills the page
   from the fetch path or zeroes it explicitly on the zero-fill-fault
   path, so an unconditional memset here would be pure overhead. *)
let alloc t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    let f = t.free_stack.(t.free_top) in
    Bytes.set t.in_use f '\001';
    Some f
  end
  else if t.fresh < t.total then begin
    let f = t.fresh in
    t.fresh <- f + 1;
    Bytes.set t.in_use f '\001';
    Some f
  end
  else None

let alloc_exn t =
  match alloc t with
  | Some f -> f
  | None -> invalid_arg "Frame.alloc_exn: pool exhausted"

let free t f =
  if f < 0 || f >= t.total then invalid_arg "Frame.free: bad frame number";
  if Bytes.get t.in_use f = '\000' then invalid_arg "Frame.free: double free";
  Bytes.set t.in_use f '\000';
  t.free_stack.(t.free_top) <- f;
  t.free_top <- t.free_top + 1

let slab t = t.slab

let offset t f =
  if f < 0 || f >= t.total || Bytes.get t.in_use f = '\000' then
    invalid_arg "Frame.offset: frame not allocated";
  f * Addr.page_size

let fill_page t f c = Sim.Bigbuf.fill t.slab ~off:(offset t f) ~len:Addr.page_size c

let blit_to t f ~off ~dst ~dst_off ~len =
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg "Frame.blit_to: range outside page";
  Sim.Bigbuf.blit_to_bytes t.slab ~src_off:(offset t f + off) dst ~dst_off ~len
