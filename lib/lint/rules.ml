(* The rule registry: what `dilos_lint --rules` prints and what the
   driver runs. Adding a rule = new Rule_x module + one line in each
   list below. *)

let all : Rule.t list =
  [
    { Rule.id = Rule_wallclock.id; doc = Rule_wallclock.doc };
    { Rule.id = Rule_poly_compare.id; doc = Rule_poly_compare.doc };
    { Rule.id = Rule_hashtbl_order.id; doc = Rule_hashtbl_order.doc };
    { Rule.id = Rule_effect.id; doc = Rule_effect.doc };
    { Rule.id = Rule_hot_alloc.id; doc = Rule_hot_alloc.doc };
    { Rule.id = Rule_obs_boot.id; doc = Rule_obs_boot.doc };
    { Rule.id = Rule_nondet_taint.id; doc = Rule_nondet_taint.doc };
    { Rule.id = Rule_hot_alloc_path.id; doc = Rule_hot_alloc_path.doc };
    { Rule.id = Rule_fiber_atomic.id; doc = Rule_fiber_atomic.doc };
  ]

let ids = List.map (fun r -> r.Rule.id) all

(* Expression-position checks (R1, R2, R3, R7, R11). *)
let check_expression ~ctx ~sort_in_scope ~cold_in_scope e : Rule.site list =
  List.concat
    [
      Rule_wallclock.check ~ctx e;
      Rule_poly_compare.check ~ctx e;
      Rule_hashtbl_order.check ~ctx ~sort_in_scope e;
      Rule_hot_alloc.check ~ctx ~cold_in_scope e;
      Rule_obs_boot.check ~ctx ~cold_in_scope e;
    ]

(* Longident-position checks (R5): catches module opens and type
   references, not just value uses. *)
let check_longident ~ctx lid : Rule.site list = Rule_effect.check ~ctx lid

(* Whole-program checks (R8, R9, R10): run once over the phase-1 index
   covering every parsed file. *)
let check_program (idx : Index.t) : Finding.t list =
  List.concat
    [
      Rule_nondet_taint.check idx;
      Rule_hot_alloc_path.check idx;
      Rule_fiber_atomic.check idx;
    ]
