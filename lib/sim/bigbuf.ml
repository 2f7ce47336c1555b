(* Off-heap byte slabs backing the frame pool and the memnode page
   store's arena. A few Bigarrays instead of one [bytes] per page keep
   the GC out of the paging hot path entirely: scans never walk page
   payloads, every bulk copy, fill and compare is one libc call
   (bigbuf_stubs.c), and scalar access compiles to single loads/stores
   through the bigstring primitives below. *)

type t =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let length (t : t) = Bigarray.Array1.dim t

(* A slab of a huge page or more is a fresh mapping the kernel zeroes
   lazily (bigbuf_stubs.c). A smaller one comes from the heap, which
   may recycle dirty memory, so it is zeroed here. *)
let huge_page = 1 lsl 21

external create_mapped : int -> t = "dilos_bigbuf_create_mapped"

let create n =
  if n < 0 then invalid_arg "Bigbuf.create: negative length";
  if n >= huge_page then create_mapped n
  else begin
    let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
    Bigarray.Array1.fill b '\000';
    b
  end

(* Unaligned scalar access primitives (native-endian loads, byteswapped
   on big-endian targets to match the [Bytes.*_le] accessors they
   replace). The [u]-suffixed externals skip bounds checks; the public
   safe variants check once. *)
external unsafe_get16 : t -> int -> int = "%caml_bigstring_get16u"
external unsafe_get32 : t -> int -> int32 = "%caml_bigstring_get32u"
external unsafe_get64 : t -> int -> int64 = "%caml_bigstring_get64u"
external unsafe_set16 : t -> int -> int -> unit = "%caml_bigstring_set16u"
external unsafe_set32 : t -> int -> int32 -> unit = "%caml_bigstring_set32u"
external unsafe_set64 : t -> int -> int64 -> unit = "%caml_bigstring_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* [off > length - len] rather than [off + len > length]: no overflow
   for huge [off]. A negative [len] is out of range too; it must never
   reach the C stubs, which take it as a [size_t]. *)
let check t off len =
  if off < 0 || len < 0 || off > length t - len then
    invalid_arg "Bigbuf: access out of bounds"

let check_bytes msg b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg msg

let get_u8 t off =
  check t off 1;
  Char.code (Bigarray.Array1.unsafe_get t off)

let set_u8 t off v =
  check t off 1;
  Bigarray.Array1.unsafe_set t off (Char.unsafe_chr (v land 0xFF))

(* [(t : t)]: without the annotation the element kind is a type
   variable here, and an unspecialised Bigarray access is a call into
   the runtime's generic [caml_ba_get_1]/[caml_ba_set_1]. *)
let[@inline] unsafe_get_u8 (t : t) off =
  Char.code (Bigarray.Array1.unsafe_get t off)

let[@inline] unsafe_set_u8 (t : t) off v =
  Bigarray.Array1.unsafe_set t off (Char.unsafe_chr (v land 0xFF))

let[@inline] unsafe_get_u16_le t off =
  let v = unsafe_get16 t off in
  if Sys.big_endian then swap16 v else v

let[@inline] unsafe_set_u16_le t off v =
  unsafe_set16 t off (if Sys.big_endian then swap16 v else v)

let[@inline] unsafe_get_u32_le t off =
  let v = unsafe_get32 t off in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF

let[@inline] unsafe_set_u32_le t off v =
  let v = Int32.of_int v in
  unsafe_set32 t off (if Sys.big_endian then swap32 v else v)

let[@inline] unsafe_get_u64_le t off =
  let v = unsafe_get64 t off in
  if Sys.big_endian then swap64 v else v

let[@inline] unsafe_set_u64_le t off v =
  unsafe_set64 t off (if Sys.big_endian then swap64 v else v)

let get_u16_le t off =
  check t off 2;
  unsafe_get_u16_le t off

let set_u16_le t off v =
  check t off 2;
  unsafe_set_u16_le t off v

let get_u32_le t off =
  check t off 4;
  unsafe_get_u32_le t off

let set_u32_le t off v =
  check t off 4;
  unsafe_set_u32_le t off v

let get_u64_le t off =
  check t off 8;
  unsafe_get_u64_le t off

let set_u64_le t off v =
  check t off 8;
  unsafe_set_u64_le t off v

(* The five byte movers and the used-length scan (bigbuf_stubs.c).
   Offsets and lengths are raw, unchecked byte counts: every caller
   below bounds-checks each range first. *)
external memmove : t -> int -> t -> int -> int -> unit
  = "dilos_bigbuf_memmove"
[@@noalloc]

external memset : t -> int -> int -> char -> unit = "dilos_bigbuf_memset"
[@@noalloc]

external memcpy_to_bytes : t -> int -> Bytes.t -> int -> int -> unit
  = "dilos_bigbuf_to_bytes"
[@@noalloc]

external memcpy_of_bytes : Bytes.t -> int -> t -> int -> int -> unit
  = "dilos_bigbuf_of_bytes"
[@@noalloc]

external memcmp_eq : t -> int -> t -> int -> int -> bool
  = "dilos_bigbuf_memcmp"
[@@noalloc]

external used_len : t -> int -> int -> int = "dilos_bigbuf_used" [@@noalloc]

let fill t ~off ~len c =
  check t off len;
  memset t off len c

let equal_range a ~a_off b ~b_off ~len =
  check a a_off len;
  check b b_off len;
  memcmp_eq a a_off b b_off len

let used t ~off ~len =
  check t off len;
  used_len t off len

let blit src ~src_off dst ~dst_off ~len =
  check src src_off len;
  check dst dst_off len;
  memmove src src_off dst dst_off len

let blit_to_bytes src ~src_off (dst : Bytes.t) ~dst_off ~len =
  check src src_off len;
  check_bytes "Bigbuf.blit_to_bytes: range out of bounds" dst dst_off len;
  memcpy_to_bytes src src_off dst dst_off len

let blit_from_bytes (src : Bytes.t) ~src_off dst ~dst_off ~len =
  check dst dst_off len;
  check_bytes "Bigbuf.blit_from_bytes: range out of bounds" src src_off len;
  memcpy_of_bytes src src_off dst dst_off len

let to_bytes t ~off ~len =
  let b = Bytes.create len in
  blit_to_bytes t ~src_off:off b ~dst_off:0 ~len;
  b

let of_string s =
  let n = String.length s in
  let b = create n in
  blit_from_bytes (Bytes.unsafe_of_string s) ~src_off:0 b ~dst_off:0 ~len:n;
  b
