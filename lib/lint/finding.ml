(* A single lint diagnostic. Findings render and sort deterministically
   (file, line, col, rule) so `dilos_lint` output is stable across runs
   and usable as a golden. *)

type t = { file : string; line : int; col : int; rule : string; msg : string }

let v ~(loc : Ppxlib.Location.t) ~rule ~msg =
  let p = loc.loc_start in
  { file = p.pos_fname; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; rule; msg }

let make ~file ~line ~col ~rule ~msg = { file; line; col; rule; msg }

(* Named [by_site] (not just [compare]) so in-module callers don't trip
   R2's syntactic bare-`compare` ban. *)
let by_site a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let compare = by_site

let to_string f = Printf.sprintf "%s:%d:%d %s %s" f.file f.line f.col f.rule f.msg

(* Global sort + exact-site dedup: phase-1 and phase-2 rules can report
   the same (file, line, col, rule) site; output must be byte-stable
   across runs and carry each site once. *)
let dedup_sorted fs =
  let rec go = function
    | a :: b :: rest when by_site a b = 0 -> go (a :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go (List.sort by_site fs)

let to_json f =
  Printf.sprintf
    "{\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \"message\": \"%s\"}"
    (Json.escape f.file) f.line f.col (Json.escape f.rule) (Json.escape f.msg)

(* Mirrors the shape of bench/main.exe --json: a top-level object with a
   summary field and an array of records. *)
let json_of_list fs =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "{\n  \"findings\": %d,\n  \"results\": [\n" (List.length fs));
  List.iteri
    (fun i f ->
      Buffer.add_string b "    ";
      Buffer.add_string b (to_json f);
      Buffer.add_string b (if i = List.length fs - 1 then "\n" else ",\n"))
    fs;
  Buffer.add_string b "  ]\n}";
  Buffer.contents b
