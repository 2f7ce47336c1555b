type vma = { base : int64; len : int64; ddc : bool; vma_name : string }

type t = { mutable vmas : vma array; mutable count : int; mutable next : int64 }
(* [vmas.(0 .. count-1)] sorted by base. Allocation is a simple bump
   since simulated address space is effectively infinite, so [mmap]
   always appends; lookups binary-search. *)

let default_base = 0x10000000L

let create ?(base = default_base) () =
  if not (Addr.is_page_aligned base) then
    invalid_arg "Address_space.create: base not page aligned";
  { vmas = [||]; count = 0; next = base }

let mmap t ~len ~ddc ?(name = "anon") () =
  if len <= 0 then invalid_arg "Address_space.mmap: len <= 0";
  let base = t.next in
  let len64 = Addr.round_up (Int64.of_int len) in
  let vma = { base; len = len64; ddc; vma_name = name } in
  if t.count = Array.length t.vmas then begin
    let grown = Array.make (Int.max 16 (2 * t.count)) vma in
    Array.blit t.vmas 0 grown 0 t.count;
    t.vmas <- grown
  end;
  t.vmas.(t.count) <- vma;
  t.count <- t.count + 1;
  (* Guard page between mappings catches stray pointer bugs. *)
  t.next <- Int64.add (Int64.add base len64) (Int64.of_int Addr.page_size);
  base

(* Index of the last mapping with [base <= addr], or -1. *)
let floor_index t addr =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Int64.compare t.vmas.(mid).base addr <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo - 1

let munmap t base =
  let i = floor_index t base in
  if i < 0 || not (Int64.equal t.vmas.(i).base base) then raise Not_found;
  let v = t.vmas.(i) in
  Array.blit t.vmas (i + 1) t.vmas i (t.count - i - 1);
  t.count <- t.count - 1;
  v

(* Index of the mapping containing [addr], or -1. *)
let index t addr =
  let i = floor_index t addr in
  if i >= 0 && Int64.compare addr (Int64.add t.vmas.(i).base t.vmas.(i).len) < 0
  then i
  else -1

let find t addr =
  let i = index t addr in
  if i < 0 then None else Some t.vmas.(i)

let is_ddc t addr =
  let i = index t addr in
  i >= 0 && t.vmas.(i).ddc

let vmas t = Array.to_list (Array.sub t.vmas 0 t.count)

let top t = t.next
