let tlb_entries = 64
let tlb_mask = tlb_entries - 1

(* Accumulated fast-path time is flushed to the engine at least this
   often, so background fibers interleave realistically. *)
let pending_cap_ns = 10_000

(* The fill charge: a TLB refill after a page-table walk. *)
let fill_ns = 20

exception Segmentation_fault of int64
exception Page_lost of int64

type t = {
  id : int;
  trk : int; (* trace track for this core's fault timeline *)
  eng : Sim.Engine.t;
  pt : Vmem.Page_table.t;
  frames : Vmem.Frame.t;
  slab : Sim.Bigbuf.t; (* the frame pool's backing slab *)
  tlb_vpn : int array;
  tlb_off : int array; (* slab byte offset of the cached page *)
  tlb_written : bool array;
  mutable pending : int;
  fault : t -> int -> unit;
  dirtied : t -> int -> unit;
  first_store : t -> int -> unit;
}

let create ~eng ~pt ~frames ~fault ~dirtied ~first_store id =
  {
    id;
    trk = Trace.track (Printf.sprintf "cpu%d" id);
    eng;
    pt;
    frames;
    slab = Vmem.Frame.slab frames;
    tlb_vpn = Array.make tlb_entries (-1);
    tlb_off = Array.make tlb_entries 0;
    tlb_written = Array.make tlb_entries false;
    pending = 0;
    fault;
    dirtied;
    first_store;
  }

let id c = c.id
let track c = c.trk
let now c = Sim.Engine.now c.eng

(* TLB arrays are always indexed by [vpn land tlb_mask], which is in
   range by construction: use unchecked loads on the hit path. *)
let install c vpn ~off ~write =
  let i = vpn land tlb_mask in
  Array.unsafe_set c.tlb_vpn i vpn;
  Array.unsafe_set c.tlb_off i off;
  Array.unsafe_set c.tlb_written i write;
  c.pending <- c.pending + fill_ns

let invalidate cpus vpn =
  let i = vpn land tlb_mask in
  for k = 0 to Array.length cpus - 1 do
    let c = Array.unsafe_get cpus k in
    if Array.unsafe_get c.tlb_vpn i = vpn then Array.unsafe_set c.tlb_vpn i (-1)
  done

(* The TLB-hit path below is [@inline] down to the slab access, so a
   hit through a [Memif] closure makes no further call. What a hit
   only rarely needs stays out of line: [flush] and [fill] here, the
   kernel's hooks. *)
let[@inline never] flush c =
  if c.pending > 0 then begin
    let p = c.pending in
    c.pending <- 0;
    Sim.Engine.sleep c.eng (Sim.Time.ns p)
  end

let[@inline] charge c ns =
  c.pending <- c.pending + ns;
  if c.pending >= pending_cap_ns then flush c

(* The slow path: walk the page table, faulting the page in as often
   as it takes (each fault pays the exception delivery first), then
   cache the translation. *)
let[@inline never] fill c vpn ~write =
  flush c;
  let rec loop () =
    match Vmem.Mmu.access c.pt ~vpn ~write with
    | Vmem.Mmu.Frame f ->
        let off = Vmem.Frame.offset c.frames f in
        install c vpn ~off ~write;
        if write then c.dirtied c vpn;
        off
    | Vmem.Mmu.Fault _ ->
        Sim.Engine.sleep c.eng Vmem.Mmu.exception_cost;
        c.fault c vpn;
        loop ()
  in
  loop ()

(* [charge] may flush the pending-time accumulator, which sleeps the
   fiber; the reclaimer can run in that window, evict the page, and
   invalidate this very TLB slot. Re-validate the entry after the last
   charge — returning the cached offset unconditionally would aim the
   access at a freed (or re-allocated) frame and the store would be
   silently lost when the page is next fetched. *)
let[@inline] page_off_for_read c vpn =
  let i = vpn land tlb_mask in
  if Array.unsafe_get c.tlb_vpn i = vpn then begin
    charge c Params.mem_access_ns;
    if Array.unsafe_get c.tlb_vpn i = vpn then Array.unsafe_get c.tlb_off i
    else fill c vpn ~write:false
  end
  else fill c vpn ~write:false

let[@inline] page_off_for_write c vpn =
  let i = vpn land tlb_mask in
  if Array.unsafe_get c.tlb_vpn i = vpn then begin
    if not (Array.unsafe_get c.tlb_written i) then begin
      (* First store through a read-loaded translation: the hardware
         walker would set the dirty bit now. *)
      Vmem.Page_table.update c.pt vpn Vmem.Pte.set_dirty;
      Array.unsafe_set c.tlb_written i true;
      c.first_store c vpn
    end;
    charge c Params.mem_access_ns;
    if Array.unsafe_get c.tlb_vpn i = vpn then Array.unsafe_get c.tlb_off i
    else fill c vpn ~write:true
  end
  else fill c vpn ~write:true

let[@inline] split addr = (Vmem.Addr.vpn addr, Vmem.Addr.offset addr)

let[@inline] check_span off size =
  if off + size > Vmem.Addr.page_size then
    invalid_arg "Kernel: scalar access straddles a page boundary"

(* Scalar accessors: translation yields a slab offset whose page-sized
   span is valid by construction, and [check_span] bounds [off], so the
   unsafe slab accessors cannot escape the mapped frame. *)

let[@inline] read_u8 c addr =
  let vpn, off = split addr in
  Sim.Bigbuf.unsafe_get_u8 c.slab (page_off_for_read c vpn + off)

let[@inline] read_u16 c addr =
  let vpn, off = split addr in
  check_span off 2;
  Sim.Bigbuf.unsafe_get_u16_le c.slab (page_off_for_read c vpn + off)

let[@inline] read_u32 c addr =
  let vpn, off = split addr in
  check_span off 4;
  Sim.Bigbuf.unsafe_get_u32_le c.slab (page_off_for_read c vpn + off)

let[@inline] read_u64 c addr =
  let vpn, off = split addr in
  check_span off 8;
  Sim.Bigbuf.unsafe_get_u64_le c.slab (page_off_for_read c vpn + off)

let[@inline] write_u8 c addr v =
  let vpn, off = split addr in
  Sim.Bigbuf.unsafe_set_u8 c.slab (page_off_for_write c vpn + off) (v land 0xFF)

let[@inline] write_u16 c addr v =
  let vpn, off = split addr in
  check_span off 2;
  Sim.Bigbuf.unsafe_set_u16_le c.slab (page_off_for_write c vpn + off) v

let[@inline] write_u32 c addr v =
  let vpn, off = split addr in
  check_span off 4;
  Sim.Bigbuf.unsafe_set_u32_le c.slab (page_off_for_write c vpn + off) v

let[@inline] write_u64 c addr v =
  let vpn, off = split addr in
  check_span off 8;
  Sim.Bigbuf.unsafe_set_u64_le c.slab (page_off_for_write c vpn + off) v

(* [_at] variants: base address plus an int byte offset, splitting the
   effective address with int arithmetic only. App hot loops use these
   to index into an arena without constructing a boxed Int64 per
   access. *)

let[@inline] eff base off = Int64.to_int base + off

let[@inline] read_u8_at c base off =
  let a = eff base off in
  Sim.Bigbuf.unsafe_get_u8 c.slab (page_off_for_read c (a lsr 12) + (a land 4095))

let[@inline] read_u16_at c base off =
  let a = eff base off in
  let o = a land 4095 in
  check_span o 2;
  Sim.Bigbuf.unsafe_get_u16_le c.slab (page_off_for_read c (a lsr 12) + o)

let[@inline] read_u32_at c base off =
  let a = eff base off in
  let o = a land 4095 in
  check_span o 4;
  Sim.Bigbuf.unsafe_get_u32_le c.slab (page_off_for_read c (a lsr 12) + o)

let[@inline] read_u64_at c base off =
  let a = eff base off in
  let o = a land 4095 in
  check_span o 8;
  Sim.Bigbuf.unsafe_get_u64_le c.slab (page_off_for_read c (a lsr 12) + o)

let[@inline] write_u8_at c base off v =
  let a = eff base off in
  Sim.Bigbuf.unsafe_set_u8 c.slab
    (page_off_for_write c (a lsr 12) + (a land 4095))
    (v land 0xFF)

let[@inline] write_u16_at c base off v =
  let a = eff base off in
  let o = a land 4095 in
  check_span o 2;
  Sim.Bigbuf.unsafe_set_u16_le c.slab (page_off_for_write c (a lsr 12) + o) v

let[@inline] write_u32_at c base off v =
  let a = eff base off in
  let o = a land 4095 in
  check_span o 4;
  Sim.Bigbuf.unsafe_set_u32_le c.slab (page_off_for_write c (a lsr 12) + o) v

let[@inline] write_u64_at c base off v =
  let a = eff base off in
  let o = a land 4095 in
  check_span o 8;
  Sim.Bigbuf.unsafe_set_u64_le c.slab (page_off_for_write c (a lsr 12) + o) v

let bulk c addr buf off len ~write =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Kernel: bulk access outside buffer";
  let pos = ref addr and done_ = ref 0 in
  while !done_ < len do
    let vpn, poff = split !pos in
    let n = Int.min (len - !done_) (Vmem.Addr.page_size - poff) in
    if write then
      let page_off = page_off_for_write c vpn in
      Sim.Bigbuf.blit_from_bytes buf ~src_off:(off + !done_) c.slab
        ~dst_off:(page_off + poff) ~len:n
    else begin
      let page_off = page_off_for_read c vpn in
      Sim.Bigbuf.blit_to_bytes c.slab ~src_off:(page_off + poff) buf
        ~dst_off:(off + !done_) ~len:n
    end;
    (* One access charge per cache line moved. *)
    charge c (n / 64 * Params.mem_access_ns);
    pos := Int64.add !pos (Int64.of_int n);
    done_ := !done_ + n
  done

let read_bytes c addr buf off len = bulk c addr buf off len ~write:false
let write_bytes c addr buf off len = bulk c addr buf off len ~write:true
let touch c addr = ignore (page_off_for_read c (Vmem.Addr.vpn addr))

module type ACCESSORS = sig
  type k

  val read_u8 : k -> core:int -> int64 -> int
  val read_u16 : k -> core:int -> int64 -> int
  val read_u32 : k -> core:int -> int64 -> int
  val read_u64 : k -> core:int -> int64 -> int64
  val write_u8 : k -> core:int -> int64 -> int -> unit
  val write_u16 : k -> core:int -> int64 -> int -> unit
  val write_u32 : k -> core:int -> int64 -> int -> unit
  val write_u64 : k -> core:int -> int64 -> int64 -> unit
  val read_bytes : k -> core:int -> int64 -> bytes -> int -> int -> unit
  val write_bytes : k -> core:int -> int64 -> bytes -> int -> int -> unit
  val read_u8_at : k -> core:int -> int64 -> int -> int
  val read_u16_at : k -> core:int -> int64 -> int -> int
  val read_u32_at : k -> core:int -> int64 -> int -> int
  val read_u64_at : k -> core:int -> int64 -> int -> int64
  val write_u8_at : k -> core:int -> int64 -> int -> int -> unit
  val write_u16_at : k -> core:int -> int64 -> int -> int -> unit
  val write_u32_at : k -> core:int -> int64 -> int -> int -> unit
  val write_u64_at : k -> core:int -> int64 -> int -> int64 -> unit
  val compute : k -> core:int -> int -> unit
  val flush : k -> core:int -> unit
  val touch : k -> core:int -> int64 -> unit
end

module Accessors (K : sig
  type k

  val cpu : k -> core:int -> t
end) =
struct
  let read_u8 k ~core a = read_u8 (K.cpu k ~core) a
  let read_u16 k ~core a = read_u16 (K.cpu k ~core) a
  let read_u32 k ~core a = read_u32 (K.cpu k ~core) a
  let read_u64 k ~core a = read_u64 (K.cpu k ~core) a
  let write_u8 k ~core a v = write_u8 (K.cpu k ~core) a v
  let write_u16 k ~core a v = write_u16 (K.cpu k ~core) a v
  let write_u32 k ~core a v = write_u32 (K.cpu k ~core) a v
  let write_u64 k ~core a v = write_u64 (K.cpu k ~core) a v
  let read_bytes k ~core a b o l = read_bytes (K.cpu k ~core) a b o l
  let write_bytes k ~core a b o l = write_bytes (K.cpu k ~core) a b o l
  let read_u8_at k ~core a off = read_u8_at (K.cpu k ~core) a off
  let read_u16_at k ~core a off = read_u16_at (K.cpu k ~core) a off
  let read_u32_at k ~core a off = read_u32_at (K.cpu k ~core) a off
  let read_u64_at k ~core a off = read_u64_at (K.cpu k ~core) a off
  let write_u8_at k ~core a off v = write_u8_at (K.cpu k ~core) a off v
  let write_u16_at k ~core a off v = write_u16_at (K.cpu k ~core) a off v
  let write_u32_at k ~core a off v = write_u32_at (K.cpu k ~core) a off v
  let write_u64_at k ~core a off v = write_u64_at (K.cpu k ~core) a off v
  let compute k ~core ns = charge (K.cpu k ~core) ns
  let flush k ~core = flush (K.cpu k ~core)
  let touch k ~core a = touch (K.cpu k ~core) a
end
