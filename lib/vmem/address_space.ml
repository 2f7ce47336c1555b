type vma = { base : int64; len : int64; ddc : bool; vma_name : string }

type t = {
  mutable vmas : vma array;
  mutable bases : int array;
  mutable ends : int array;
  mutable count : int;
  mutable next : int64;
}
(* [vmas.(0 .. count-1)] sorted by base. Allocation is a simple bump
   since simulated address space is effectively infinite, so [mmap]
   always appends; lookups binary-search [bases] and test [ends],
   which mirror [vmas.(i).base] and [base + len] as immediate ints (a
   DiLOS process holds thousands of mappings, one per large DDC
   object, and [is_ddc] runs for every prefetch candidate). Every
   mapping lies within the int range: [create] and [mmap] refuse one
   that would not. *)

let default_base = 0x10000000L

let min_base = Int64.of_int min_int
let max_base = Int64.of_int max_int

let create ?(base = default_base) () =
  if not (Addr.is_page_aligned base) then
    invalid_arg "Address_space.create: base not page aligned";
  if Int64.compare base min_base < 0 || Int64.compare base max_base > 0 then
    invalid_arg "Address_space.create: base outside the int range";
  { vmas = [||]; bases = [||]; ends = [||]; count = 0; next = base }

let mmap t ~len ~ddc ?(name = "anon") () =
  if len <= 0 then invalid_arg "Address_space.mmap: len <= 0";
  let base = t.next in
  let len64 = Addr.round_up (Int64.of_int len) in
  let end_ = Int64.add base len64 in
  if Int64.compare end_ base < 0 || Int64.compare end_ max_base > 0 then
    invalid_arg "Address_space.mmap: address space exhausted";
  let vma = { base; len = len64; ddc; vma_name = name } in
  if t.count = Array.length t.vmas then begin
    let cap = Int.max 16 (2 * t.count) in
    let grown = Array.make cap vma in
    Array.blit t.vmas 0 grown 0 t.count;
    t.vmas <- grown;
    let grow a =
      let g = Array.make cap 0 in
      Array.blit a 0 g 0 t.count;
      g
    in
    t.bases <- grow t.bases;
    t.ends <- grow t.ends
  end;
  t.vmas.(t.count) <- vma;
  t.bases.(t.count) <- Int64.to_int base;
  t.ends.(t.count) <- Int64.to_int end_;
  t.count <- t.count + 1;
  (* Guard page between mappings catches stray pointer bugs. *)
  t.next <- Int64.add end_ (Int64.of_int Addr.page_size);
  base

(* Index of the last mapping with [base <= key], or -1. *)
let floor_index t key =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.bases.(mid) <= key then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* Index of the mapping containing [addr], or -1. Mappings lie within
   the int range, so an [addr] outside it is in none. *)
let index t addr =
  if Int64.compare addr min_base < 0 || Int64.compare addr max_base > 0 then -1
  else begin
    let key = Int64.to_int addr in
    let i = floor_index t key in
    if i >= 0 && key < t.ends.(i) then i else -1
  end

let munmap t base =
  let i = index t base in
  if i < 0 || not (Int64.equal t.vmas.(i).base base) then raise Not_found;
  let v = t.vmas.(i) in
  let tail = t.count - i - 1 in
  Array.blit t.vmas (i + 1) t.vmas i tail;
  Array.blit t.bases (i + 1) t.bases i tail;
  Array.blit t.ends (i + 1) t.ends i tail;
  t.count <- t.count - 1;
  v

let find t addr =
  let i = index t addr in
  if i < 0 then None else Some t.vmas.(i)

let is_ddc t addr =
  let i = index t addr in
  i >= 0 && t.vmas.(i).ddc

let vmas t = Array.to_list (Array.sub t.vmas 0 t.count)

let top t = t.next
