type t = {
  symbols : (string, string) Hashtbl.t;
  hooks : (string, (int64 -> unit) list) Hashtbl.t;
}

let default_patches =
  [
    ("malloc", "ddc_malloc");
    ("free", "ddc_free");
    ("calloc", "ddc_calloc");
    ("realloc", "ddc_realloc");
    ("posix_memalign", "ddc_posix_memalign");
  ]

let create () =
  let t = { symbols = Hashtbl.create 16; hooks = Hashtbl.create 16 } in
  List.iter (fun (o, r) -> Hashtbl.replace t.symbols o r) default_patches;
  t

let resolve t name =
  match Hashtbl.find_opt t.symbols name with Some r -> r | None -> name

let patched t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.symbols []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let register_hook t name fn =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.hooks name) in
  Hashtbl.replace t.hooks name (existing @ [ fn ])

let fire_hook t name arg =
  match Hashtbl.find_opt t.hooks name with
  | None -> ()
  | Some fns -> List.iter (fun f -> f arg) fns
