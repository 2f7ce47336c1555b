type t = int64

(* [zlbytes:u32][count:u16][pad:u16][cap:u32] *)
let header_size = 12

let create (mem : Memif.t) ~capacity =
  let base = mem.Memif.malloc (header_size + capacity) in
  mem.Memif.write_u32_at base 0 header_size;
  mem.Memif.write_u16_at base 4 0;
  mem.Memif.write_u16_at base 6 0;
  mem.Memif.write_u32_at base 8 (header_size + capacity);
  base

(* Header + entries actually stored. *)
let used_bytes (mem : Memif.t) t = mem.Memif.read_u32_at t 0
let length (mem : Memif.t) t = mem.Memif.read_u16_at t 4
let capacity_bytes t (mem : Memif.t) = mem.Memif.read_u32_at t 8

let try_append (mem : Memif.t) t entry =
  let n = Bytes.length entry in
  if n > 0xFFFF then invalid_arg "Ziplist: entry too large";
  let used = used_bytes mem t in
  let cap = capacity_bytes t mem in
  if used + 2 + n > cap then false
  else begin
    mem.Memif.write_u16_at t used n;
    mem.Memif.write_bytes (Int64.add t (Int64.of_int (used + 2))) entry 0 n;
    mem.Memif.write_u32_at t 0 (used + 2 + n);
    mem.Memif.write_u16_at t 4 (length mem t + 1);
    true
  end

let iter (mem : Memif.t) t f =
  let count = length mem t in
  let pos = ref header_size in
  for _ = 1 to count do
    let n = mem.Memif.read_u16_at t !pos in
    let b = Bytes.create n in
    mem.Memif.read_bytes (Int64.add t (Int64.of_int (!pos + 2))) b 0 n;
    f b;
    pos := !pos + 2 + n
  done

let nth (mem : Memif.t) t i =
  if i < 0 || i >= length mem t then None
  else begin
    let pos = ref header_size in
    for _ = 1 to i do
      let n = mem.Memif.read_u16_at t !pos in
      pos := !pos + 2 + n
    done;
    let n = mem.Memif.read_u16_at t !pos in
    let b = Bytes.create n in
    mem.Memif.read_bytes (Int64.add t (Int64.of_int (!pos + 2))) b 0 n;
    Some b
  end

let free (mem : Memif.t) t = mem.Memif.free t
