let header_size = 8
let total_size n = header_size + n + 1

let create (mem : Memif.t) src ~len:n =
  let base = mem.Memif.malloc (total_size n) in
  mem.Memif.write_u32_at base 0 n;
  mem.Memif.write_u32_at base 4 n;
  mem.Memif.write_bytes (Int64.add base (Int64.of_int header_size)) src 0 n;
  mem.Memif.write_u8_at base (header_size + n) 0;
  base

let len (mem : Memif.t) base = mem.Memif.read_u32_at base 0
let data_addr base = Int64.add base (Int64.of_int header_size)

(* A reply buffer grows once per new largest value — a handful of times
   per run — so its allocation is a cold constructor, off the per-GET
   path. *)
let create_buffer n = Bytes.create n

let get (mem : Memif.t) base buf =
  let n = len mem base in
  if n > Bytes.length !buf then buf := create_buffer n;
  mem.Memif.read_bytes (data_addr base) !buf 0 n;
  n

let free (mem : Memif.t) base = mem.Memif.free base
