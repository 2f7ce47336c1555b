type t = int
type tag = Unmapped | Local | Remote | Fetching | Action

let zero = 0
let bit_present = 0x1
let bit_write = 0x2
let bit_user = 0x4
let bit_accessed = 0x20
let bit_dirty = 0x40
let low_mask = 0x7

let tag t =
  if t = 0 then Unmapped
  else if t land bit_present <> 0 then Local
  else
    match t land low_mask with
    | 0x2 -> Remote
    | 0x4 -> Fetching
    | 0x6 -> Action
    | _ -> Unmapped

let make_local ~frame ~writable =
  let t = (frame lsl 12) lor bit_present in
  if writable then t lor bit_write else t

let make_remote () = bit_write
let make_fetching () = bit_user

let make_action ~payload =
  if payload < 0 then invalid_arg "Pte.make_action: negative payload";
  (payload lsl 12) lor bit_write lor bit_user

let frame t =
  assert (tag t = Local);
  t lsr 12

let payload t =
  assert (tag t = Action);
  t lsr 12

let writable t = t land bit_write <> 0 && t land bit_present <> 0
let accessed t = t land bit_accessed <> 0
let dirty t = t land bit_dirty <> 0
let set_accessed t = t lor bit_accessed
let set_dirty t = t lor bit_dirty
let clear_accessed t = t land lnot bit_accessed
let clear_dirty t = t land lnot bit_dirty

let pp ppf t =
  let name =
    match tag t with
    | Unmapped -> "unmapped"
    | Local -> "local"
    | Remote -> "remote"
    | Fetching -> "fetching"
    | Action -> "action"
  in
  Format.fprintf ppf "%s%s%s" name
    (if accessed t then "+A" else "")
    (if dirty t then "+D" else "")
