type backend_kind = Dilos_backend | Fastswap_backend | Aifm_backend

type t = {
  kind : backend_kind;
  malloc : int -> int64;
  free : int64 -> unit;
  read_u8 : int64 -> int;
  read_u16 : int64 -> int;
  read_u32 : int64 -> int;
  read_u64 : int64 -> int64;
  write_u8 : int64 -> int -> unit;
  write_u16 : int64 -> int -> unit;
  write_u32 : int64 -> int -> unit;
  write_u64 : int64 -> int64 -> unit;
  read_bytes : int64 -> bytes -> int -> int -> unit;
  write_bytes : int64 -> bytes -> int -> int -> unit;
  read_u8_at : int64 -> int -> int;
  read_u16_at : int64 -> int -> int;
  read_u32_at : int64 -> int -> int;
  read_u64_at : int64 -> int -> int64;
  write_u8_at : int64 -> int -> int -> unit;
  write_u16_at : int64 -> int -> int -> unit;
  write_u32_at : int64 -> int -> int -> unit;
  write_u64_at : int64 -> int -> int64 -> unit;
  compute : int -> unit;
  flush : unit -> unit;
  touch : int64 -> unit;
  now : unit -> Sim.Time.t;
}

let[@inline] read_i32_at t base off =
  let v = t.read_u32_at base off in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let[@inline] write_i32_at t base off v =
  t.write_u32_at base off (v land 0xFFFFFFFF)
