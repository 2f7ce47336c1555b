(* R7 hot-alloc: the paper-scale engine's zero-alloc discipline. The
   frame store and fault path moved off GC-tracked buffers (one Bigbuf
   slab, pooled completion records); a [Bytes.create] or [Array.init]
   creeping back into a hot module re-introduces per-fault heap churn
   that the allocation-regression smoke (`bench/main.exe
   --alloc-smoke`) then has to catch at runtime. This rule catches it
   at lint time.

   Boot-time allocation is fine — what matters is the steady state —
   so sites inside cold-constructor bindings ([boot], [create],
   [connect], [make_*], [create_*]) are exempt; the driver tracks that
   scope. Anything else in a hot module needs a [@lint.allow
   "hot-alloc"] with a written ownership argument (e.g. a buffer whose
   lifetime rules out pooling). *)

(* Bind our sibling Config before Ppxlib shadows it with its own. *)
module Cfg = Config
open Ppxlib

let id = "hot-alloc"

let doc =
  "Bytes.create/Bytes.make/Array.init are banned on the steady-state \
   paths of hot modules (core/cpu, core/kernel, core/major_fault, \
   core/page_manager, core/writeback, fastswap/kernel, aifm/runtime, \
   rdma/qp, memnode/replica_group); \
   allocate at boot (exempt: \
   boot/create/connect/make_* bindings) or pool the buffer"

let is_hot_alloc p =
  let rec ends_with = function
    | [ "Bytes"; ("create" | "make") ] -> true
    | [ "Array"; "init" ] -> true
    | _ :: rest -> ends_with rest
    | [] -> false
  in
  ends_with p

(* Cold-constructor binding names whose subtrees may allocate freely. *)
let cold_binding name =
  let prefixed p =
    String.length name >= String.length p && String.equal (String.sub name 0 (String.length p)) p
  in
  List.mem name [ "boot"; "create"; "connect" ]
  || prefixed "make_" || prefixed "create_"

let check ~(ctx : Cfg.ctx) ~cold_in_scope (e : expression) : Rule.site list =
  if (not (Cfg.is_hot ctx)) || cold_in_scope then []
  else
    let p = Rule.path_of_expr e in
    if is_hot_alloc p then
      [
        ( id,
          e.pexp_loc,
          Printf.sprintf
            "`%s` allocates on a hot module's steady-state path; allocate at \
             boot or pool the buffer (see the Bigbuf frame store), or justify \
             with [@lint.allow \"hot-alloc\"]"
            (String.concat "." p) );
      ]
    else []
