(* Where a file sits in the tree decides which rules apply to it.

   The linter is invoked on the three source roots (lib/, bin/, bench/);
   classification is by path segment so it works whether paths arrive as
   "lib/sim/engine.ml", "./lib/sim/engine.ml" or "../lib/sim/engine.ml"
   (the test suite runs from _build/default/test). *)

type root = Lib | Bin | Bench

type ctx = {
  root : root;
  rel : string; (* path below the root, e.g. "sim/engine.ml" *)
}

let root_to_string = function Lib -> "lib" | Bin -> "bin" | Bench -> "bench"

let split_path p =
  String.split_on_char '/' p |> List.filter (fun s -> String.length s > 0)

(* Classify by the LAST lib/bin/bench segment so nested copies (say a
   fixture tree) classify by the innermost root. Unknown layouts default
   to Lib: the strictest rule set. *)
let classify path =
  let segs = split_path path in
  let rec last_root acc = function
    | [] -> acc
    | s :: rest ->
        let acc =
          match s with
          | "lib" -> Some (Lib, rest)
          | "bin" -> Some (Bin, rest)
          | "bench" -> Some (Bench, rest)
          | _ -> acc
        in
        last_root acc rest
  in
  match last_root None segs with
  | Some (root, rel) -> { root; rel = String.concat "/" rel }
  | None -> { root = Lib; rel = String.concat "/" segs }

(* R7, R9, R11: modules on the fault / RDMA hot paths. Their steady
   state must not allocate (R7, and R9 through their callees) nor
   resolve Obs handles outside boot (R11). *)
let hot_modules =
  [
    "core/cpu.ml";
    "core/kernel.ml";
    "core/major_fault.ml";
    "core/page_manager.ml";
    "core/writeback.ml";
    "fastswap/kernel.ml";
    "aifm/runtime.ml";
    "rdma/qp.ml";
    "memnode/replica_group.ml";
  ]

let is_hot ctx = ctx.root = Lib && List.mem ctx.rel hot_modules

(* R1: bench/ legitimately measures host wall-clock (that is its job);
   everything else must take time only from the simulated clock. *)
let wallclock_checked ctx = match ctx.root with Bench -> false | Lib | Bin -> true

(* R5: effect handlers implement the DES fibers and live in lib/sim/
   only; anywhere else they bypass the engine's deterministic
   scheduling. *)
let effect_allowed ctx =
  ctx.root = Lib
  && (String.length ctx.rel >= 4 && String.equal (String.sub ctx.rel 0 4) "sim/")

(* ------------------------------------------------------------------ *)
(* Per-directory rule profiles: one table answering "does rule R bind
   for a file at ctx?". The per-rule predicates above feed it; the
   driver and the whole-program rules consult only this. bench/ is the
   wall-clock harness, so both the syntactic rule (R1) and its
   interprocedural extension (R8) are off there — but a lib/ or bin/
   function that *calls into* bench wrappers is exactly what R8 exists
   to catch. *)
let rule_enabled ctx rule_id =
  match rule_id with
  | "no-wallclock" | "nondet-taint" -> wallclock_checked ctx
  | "effect-hygiene" -> not (effect_allowed ctx)
  | "hot-alloc" | "obs-boot-only" -> is_hot ctx
  | _ -> true

(* R9: functions whose transitive callees must not allocate, beyond
   "every non-cold def in a hot module". The call graph cannot see
   through records of closures (Memif ops, Prefetcher.decide), so the
   prefetcher constructors — whose [decide] closures run inside the
   fault path — are named here explicitly. Keys are module-qualified
   def names as Index builds them (Lib_name.Module.value). *)
let hot_entries =
  [
    "Apps.Serving.run";
    "Dilos.Prefetcher.readahead";
    "Dilos.Prefetcher.trend_based";
  ]
