(** Backend-neutral memory interface.

    Applications in this repository are written once against this
    record and run unmodified on DiLOS, Fastswap or AIFM — mirroring
    the paper's compatibility argument: the same binary runs on the
    paging systems, while AIFM requires its pointer discipline
    (handles must not be arithmetically combined across allocations,
    which all our applications already respect).

    All data-path functions must be called from a simulation fiber. *)

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
      (** [_at] variants access [base + off] where [off] is a plain
          [int] byte offset. Semantically identical to the [int64]
          accessors at [Int64.add base (Int64.of_int off)], but the
          paging backends resolve them without boxing a fresh [int64]
          per access — the indexed-array idiom ([a.(i)]) every
          application hot loop uses. *)
  read_u16_at : int64 -> int -> int;
  read_u32_at : int64 -> int -> int;
  read_u64_at : int64 -> int -> int64;
  write_u8_at : int64 -> int -> int -> unit;
  write_u16_at : int64 -> int -> int -> unit;
  write_u32_at : int64 -> int -> int -> unit;
  write_u64_at : int64 -> int -> int64 -> unit;
  compute : int -> unit;  (** charge CPU nanoseconds *)
  flush : unit -> unit;
  touch : int64 -> unit;
  now : unit -> Sim.Time.t;
}

val read_i32_at : t -> int64 -> int -> int
(** Sign-extending 32-bit read at [base + off] (helper over
    [read_u32_at]). *)

val write_i32_at : t -> int64 -> int -> int -> unit
