(* robj: [type:u8][pad:7][ptr:u64] — a 16-byte typed header, giving
   GET the same double indirection real Redis pays. *)
let robj_size = 16
let type_string = 1
let type_list = 2

let hook_get_sds = "redis.get_sds"
let hook_lrange_node = "redis.lrange_node"

type t = {
  m : Memif.t;
  dict : Dict.t;
  fire : string -> int64 -> unit;
}

let create (ctx : Harness.ctx) ~keyspace_hint =
  let m = ctx.Harness.mem ~core:0 in
  let fire =
    match ctx.Harness.instance with
    | Harness.I_dilos k ->
        let loader = Dilos.Kernel.loader k in
        fun name arg -> Dilos.Loader.fire_hook loader name arg
    | Harness.I_fastswap _ | Harness.I_aifm _ -> fun _ _ -> ()
  in
  { m; dict = Dict.create m ~size_hint:keyspace_hint; fire }

let mem t = t.m

let robj_create t ty ptr =
  let o = t.m.Memif.malloc robj_size in
  t.m.Memif.write_u8_at o 0 ty;
  t.m.Memif.write_u64_at o 8 ptr;
  o

let robj_type t o = t.m.Memif.read_u8_at o 0
let robj_ptr t o = t.m.Memif.read_u64_at o 8

let robj_free t o =
  (match robj_type t o with
  | ty when ty = type_string -> Sds.free t.m (robj_ptr t o)
  | ty when ty = type_list -> Quicklist.free t.m (robj_ptr t o)
  | _ -> invalid_arg "Redis: corrupt robj");
  t.m.Memif.free o

let set t ~key ~value ~len =
  (match Dict.find t.dict key with
  | Some old -> robj_free t old
  | None -> ());
  let sds = Sds.create t.m value ~len in
  Dict.insert t.dict ~key ~value:(robj_create t type_string sds)

let get t key reply =
  match Dict.find t.dict key with
  | None -> None
  | Some o ->
      if robj_type t o <> type_string then None
      else begin
        let sds = robj_ptr t o in
        (* Hook point: the guide learns the SDS address before the
           value bytes are touched. *)
        t.fire hook_get_sds sds;
        Some (Sds.get t.m sds reply)
      end

let del t key =
  match Dict.remove t.dict key with
  | None -> false
  | Some o ->
      robj_free t o;
      true

let list_of t key =
  match Dict.find t.dict key with
  | Some o when robj_type t o = type_list -> robj_ptr t o
  | Some _ -> invalid_arg "Redis: WRONGTYPE"
  | None ->
      let ql = Quicklist.create t.m in
      Dict.insert t.dict ~key ~value:(robj_create t type_list ql);
      ql

let rpush t ~key elem = Quicklist.push_tail t.m (list_of t key) elem

let lrange t ~key ~count =
  match Dict.find t.dict key with
  | None -> []
  | Some o ->
      if robj_type t o <> type_list then invalid_arg "Redis: WRONGTYPE"
      else
        Quicklist.range t.m (robj_ptr t o) ~count
          ~on_node:(fun node -> t.fire hook_lrange_node node)
          ()
