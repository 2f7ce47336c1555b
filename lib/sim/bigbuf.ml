(* Off-heap byte slabs backing the frame pool and the memnode page
   store's arena. A few Bigarrays instead of one [bytes] per page keep
   the GC out of the paging hot path entirely: scans never walk page
   payloads, copies are [memcpy], and scalar access compiles to single
   loads/stores through the bigstring primitives below. *)

type t =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let length (t : t) = Bigarray.Array1.dim t

(* glibc serves any request at or above its maximum dynamic mmap
   threshold (32 MiB) straight from a fresh anonymous mapping, which
   the kernel zero-fills lazily. Above this size we rely on that, for
   the frame pool only: a large pool is virtual until its frames are
   touched. Below it, malloc may recycle dirty memory, so we memset
   explicitly. The page store allocates its own uninitialised arena
   segments and relies on neither. *)
let mmap_zero_threshold = 1 lsl 26

let create n =
  if n < 0 then invalid_arg "Bigbuf.create: negative length";
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  if n < mmap_zero_threshold then Bigarray.Array1.fill b '\000';
  b

let sub (t : t) ~off ~len : t =
  if off < 0 || len < 0 || off + len > length t then
    invalid_arg "Bigbuf.sub: range out of bounds";
  Bigarray.Array1.sub t off len

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

let check t off len =
  if off < 0 || off + len > length t then
    invalid_arg "Bigbuf: access out of bounds"

let get_u8 t off =
  check t off 1;
  Char.code (Bigarray.Array1.unsafe_get t off)

let set_u8 t off v =
  check t off 1;
  Bigarray.Array1.unsafe_set t off (Char.unsafe_chr (v land 0xFF))

let[@inline] unsafe_get_u8 t off =
  Char.code (Bigarray.Array1.unsafe_get t off)

let[@inline] unsafe_set_u8 t off v =
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

let fill t ~off ~len c =
  check t off len;
  if len > 0 then Bigarray.Array1.fill (Bigarray.Array1.sub t off len) c

(* Range equality in 8-byte strides (memcmp stand-in); feeds the
   replica group's granule diffing, so it must not allocate. *)
let equal_range a ~a_off b ~b_off ~len =
  check a a_off len;
  check b b_off len;
  let words = len lsr 3 in
  let eq = ref true in
  let i = ref 0 in
  while !eq && !i < words do
    if
      not
        (Int64.equal
           (unsafe_get64 a (a_off + (!i lsl 3)))
           (unsafe_get64 b (b_off + (!i lsl 3))))
    then eq := false;
    incr i
  done;
  let j = ref (words lsl 3) in
  while !eq && !j < len do
    if
      not
        (Char.equal
           (Bigarray.Array1.unsafe_get a (a_off + !j))
           (Bigarray.Array1.unsafe_get b (b_off + !j)))
    then eq := false;
    incr j
  done;
  !eq

(* Slab-to-slab copy: two O(1) views plus one memcpy. *)
let blit src ~src_off dst ~dst_off ~len =
  check src src_off len;
  check dst dst_off len;
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src src_off len)
      (Bigarray.Array1.sub dst dst_off len)

external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* bytes <-> slab copies (the app-facing bulk path): no stdlib
   primitive crosses the heap/off-heap boundary, so copy 8-byte words.
   Word loads/stores are endian-agnostic here because source and
   destination use the same byte order. *)
let blit_to_bytes src ~src_off (dst : Bytes.t) ~dst_off ~len =
  check src src_off len;
  if dst_off < 0 || len < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Bigbuf.blit_to_bytes: range out of bounds";
  let words = len lsr 3 in
  for i = 0 to words - 1 do
    bytes_set64u dst (dst_off + (i lsl 3)) (unsafe_get64 src (src_off + (i lsl 3)))
  done;
  for i = words lsl 3 to len - 1 do
    Bytes.unsafe_set dst (dst_off + i) (Bigarray.Array1.unsafe_get src (src_off + i))
  done

let blit_from_bytes (src : Bytes.t) ~src_off dst ~dst_off ~len =
  check dst dst_off len;
  if src_off < 0 || len < 0 || src_off + len > Bytes.length src then
    invalid_arg "Bigbuf.blit_from_bytes: range out of bounds";
  let words = len lsr 3 in
  for i = 0 to words - 1 do
    unsafe_set64 dst (dst_off + (i lsl 3)) (bytes_get64u src (src_off + (i lsl 3)))
  done;
  for i = words lsl 3 to len - 1 do
    Bigarray.Array1.unsafe_set dst (dst_off + i) (Bytes.unsafe_get src (src_off + i))
  done

let to_bytes t ~off ~len =
  let b = Bytes.create len in
  blit_to_bytes t ~src_off:off b ~dst_off:0 ~len;
  b

let of_string s =
  let n = String.length s in
  let b = create n in
  blit_from_bytes (Bytes.unsafe_of_string s) ~src_off:0 b ~dst_off:0 ~len:n;
  b
