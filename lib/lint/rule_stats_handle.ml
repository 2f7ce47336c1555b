(* R4 stats-handle: DESIGN.md §4's hot-path discipline. The string-keyed
   Stats API (Stats.incr/Stats.add) hashes its key on every call; on the
   fault and RDMA paths that cost lands inside the window the whole
   repro is measuring. Modules in Config.hot_modules must resolve a
   handle once at boot (Stats.counter) and bump it (cincr/cadd). The
   string API stays legal everywhere else — reporting and cold setup
   paths read better with it. *)

(* Bind our sibling Config before Ppxlib shadows it with its own. *)
module Cfg = Config
open Ppxlib

let id = "stats-handle"

let doc =
  "string-keyed Stats.incr/Stats.add are banned in hot modules \
   (core/cpu, core/kernel, core/page_manager, fastswap/kernel, aifm/runtime, \
   rdma/qp, memnode/replica_group); \
   resolve a handle at boot with Stats.counter and use cincr/cadd"

let is_string_stats p =
  (* Matches Stats.incr / Stats.add and any qualification of them
     (Sim.Stats.incr). *)
  let rec ends_with = function
    | [ "Stats"; ("incr" | "add") ] -> true
    | _ :: rest -> ends_with rest
    | [] -> false
  in
  ends_with p

let check ~(ctx : Cfg.ctx) (e : expression) : Rule.site list =
  if not (Cfg.is_hot ctx) then []
  else
    let p = Rule.path_of_expr e in
    if is_string_stats p then
      [
        ( id,
          e.pexp_loc,
          Printf.sprintf
            "`%s` hashes its key per call; this is a hot module — use a boot-time \
             handle (Stats.counter + cincr/cadd)"
            (String.concat "." p) );
      ]
    else []
