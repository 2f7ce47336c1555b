(* Parse .ml files with ppxlib's Parsetree and walk them with
   Ast_traverse, applying the rule set under a suppression stack.

   The walker keeps this scope state:
   - [allow_stack]: rule ids allowed by [@lint.allow]/[@@lint.allow]
     attributes on any enclosing expression / value binding / structure
     item; a finding inside a suppressed subtree is dropped.
   - [sort_depth]: > 0 while inside a value binding whose subtree
     applies a sort — rule R3's "sorted in the same function"
     approximation.
   - [cold_depth]: > 0 while inside a cold-constructor binding
     (boot/create/connect, make_ prefixes) — rule R7's "boot-time
     allocation is fine" approximation. *)

(* Bind our sibling Config before Ppxlib shadows it with its own. *)
module Cfg = Config
open Ppxlib

let parse_file path : structure =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

class walker ~(ctx : Cfg.ctx) ~(emit : Finding.t -> unit) =
  object (self)
    inherit Ast_traverse.iter as super
    val mutable allow_stack : string list list = []

    (* Floating [@@@lint.allow] attributes live in their own field, NOT
       in [allow_stack]: they are never popped by [with_allows], so an
       expression-level allow opening and closing around them can no
       longer pop them out of order. Scoped per *structure*, so a
       floating allow covers the rest of its enclosing structure (for a
       top-level one: the rest of the file) and does not leak out of a
       nested module. *)
    val mutable floating_allows : string list = []
    val mutable sort_depth = 0
    val mutable cold_depth = 0

    method private suppressed rule =
      List.exists (String.equal rule) floating_allows
      || List.exists (List.exists (String.equal rule)) allow_stack

    method private report ((rule, loc, msg) : Rule.site) =
      if not (self#suppressed rule) then emit (Finding.v ~loc ~rule ~msg)

    method private with_allows allows f =
      allow_stack <- allows :: allow_stack;
      f ();
      allow_stack <- List.tl allow_stack

    method! structure items =
      let saved = floating_allows in
      List.iter
        (fun it ->
          (match it.pstr_desc with
          | Pstr_attribute a ->
              floating_allows <- Suppress.allows [ a ] @ floating_allows
          | _ -> ());
          self#structure_item it)
        items;
      floating_allows <- saved

    method! value_binding vb =
      let has_sort = Rule_hashtbl_order.contains_sort vb.pvb_expr in
      let is_cold =
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ } -> Rule_hot_alloc.cold_binding txt
        | _ -> false
      in
      if has_sort then sort_depth <- sort_depth + 1;
      if is_cold then cold_depth <- cold_depth + 1;
      self#with_allows (Suppress.allows vb.pvb_attributes) (fun () ->
          super#value_binding vb);
      if has_sort then sort_depth <- sort_depth - 1;
      if is_cold then cold_depth <- cold_depth - 1

    method! expression e =
      self#with_allows (Suppress.allows e.pexp_attributes) (fun () ->
          List.iter self#report
            (Rules.check_expression ~ctx ~sort_in_scope:(sort_depth > 0)
               ~cold_in_scope:(cold_depth > 0) e);
          super#expression e)

    method! longident_loc lid =
      List.iter self#report (Rules.check_longident ~ctx lid);
      super#longident_loc lid
  end

let lint_structure ~ctx str : Finding.t list =
  let acc = ref [] in
  (new walker ~ctx ~emit:(fun f -> acc := f :: !acc))#structure str;
  List.sort Finding.compare !acc

(* Lint one file. [ctx] overrides path classification — the fixture
   tests use it to lint a fixture as if it sat at a given spot in the
   tree. A syntax error is itself a finding: the tool must exit nonzero
   rather than skip the file. *)
let lint_file ?ctx path : Finding.t list =
  let ctx = match ctx with Some c -> c | None -> Cfg.classify path in
  match parse_file path with
  | str -> lint_structure ~ctx str
  | exception _ ->
      [ Finding.make ~file:path ~line:1 ~col:0 ~rule:"parse-error" ~msg:"file does not parse" ]

(* Every .ml under the given paths, in sorted order (Sys.readdir order
   is not deterministic — our own medicine). _build and dotdirs are
   skipped. *)
let rec ml_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.concat_map (fun name ->
           if String.equal name "_build" || (String.length name > 0 && name.[0] = '.')
           then []
           else ml_files (Filename.concat path name))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

(* Two-phase whole-program lint. Phase 1 parses every file once and
   runs the per-file rules (R1-R7) plus builds the def/use index;
   phase 2 runs the interprocedural rules (R8-R10) over the index.
   A file that does not parse becomes a parse-error finding and is
   simply absent from the index. Output is globally deduped and sorted
   so repeated runs are byte-identical. *)
let lint_paths paths : Finding.t list =
  let files = List.concat_map ml_files paths in
  let parsed = ref [] and findings = ref [] in
  List.iter
    (fun f ->
      match parse_file f with
      | str ->
          parsed := (f, Cfg.classify f, str) :: !parsed;
          findings := lint_structure ~ctx:(Cfg.classify f) str @ !findings
      | exception _ ->
          findings :=
            Finding.make ~file:f ~line:1 ~col:0 ~rule:"parse-error"
              ~msg:"file does not parse"
            :: !findings)
    files;
  let idx = Index.build (List.rev !parsed) in
  Finding.dedup_sorted (Rules.check_program idx @ !findings)

(* How many [@lint.allow]-family attributes the tree carries, counted
   on the AST so comments and string literals mentioning the attribute
   don't inflate it. test_lint.ml budgets this number: suppressions are
   expected to be rare and each to carry a written justification. *)
let suppression_count paths : int =
  let count = ref 0 in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! attribute a =
        if String.equal a.attr_name.txt Suppress.attr_name then incr count;
        super#attribute a
    end
  in
  List.concat_map ml_files paths
  |> List.iter (fun f ->
         match parse_file f with str -> it#structure str | exception _ -> ());
  !count
