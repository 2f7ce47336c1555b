(* Perf-trajectory regression gate (`bench/main.exe -- --regress FILE`).

   Reads a committed BENCH_<tag>.json, re-runs the same targets fresh,
   and enforces the trajectory's contract:

   - [sim_ms] and every counter recorded in the baseline must match
     EXACTLY — simulated time and counters are deterministic outputs,
     so any drift is a behaviour change, not noise. Counters that only
     exist in the fresh run are allowed (newer code adds metrics; the
     next milestone capture picks them up).
   - Tracked histograms must match on count/p50/p99 exactly and on the
     recorded mean at the file's own precision.
   - [wall_s] may move, but not regress past WALL_SLACK x the recorded
     baseline — the "did we make the simulator 3x slower" tripwire,
     tolerant of CI machine variance.

   Exit codes: 0 trajectory holds, 1 drift, 2 unreadable baseline. *)

module J = Json

let wall_slack = 3.0

(* Wall-clock floor: baselines captured on fast machines can record
   a few milliseconds; 3x of that is not a meaningful budget. *)
let wall_floor_s = 0.5

let drifts : string list ref = ref []

let drift fmt =
  Printf.ksprintf (fun s -> drifts := s :: !drifts) fmt

let die fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "regress: %s\n" s;
      exit 2)
    fmt

let str = function Some (J.Str s) -> Some s | _ -> None
let num = function Some (J.Num f) -> Some f | _ -> None
let obj = function Some (J.Obj o) -> Some o | _ -> None

let check_counters ~name baseline (fresh : (string * int) list) =
  List.iter
    (fun (k, v) ->
      match num (Some v) with
      | None -> die "%s: counter %S is not a number" name k
      | Some base -> (
          let base = int_of_float base in
          match List.assoc_opt k fresh with
          | None -> drift "%s: counter %s disappeared (baseline %d)" name k base
          | Some cur when cur <> base ->
              drift "%s: counter %s moved %d -> %d" name k base cur
          | Some _ -> ()))
    baseline

let check_histos ~name baseline (fresh : Perf.histo_summary list) =
  List.iter
    (fun (k, v) ->
      match obj (Some v) with
      | None -> die "%s: histogram %S is not an object" name k
      | Some fields -> (
          match
            List.find_opt (fun h -> h.Perf.h_name = k) fresh
          with
          | None -> drift "%s: histogram %s disappeared" name k
          | Some h ->
              let want field =
                match num (List.assoc_opt field fields) with
                | Some f -> int_of_float f
                | None -> die "%s: histogram %s lacks %s" name k field
              in
              if h.Perf.h_count <> want "count" then
                drift "%s: %s count moved %d -> %d" name k (want "count")
                  h.Perf.h_count;
              if h.Perf.h_p50 <> want "p50_ns" then
                drift "%s: %s p50 moved %d -> %d" name k (want "p50_ns")
                  h.Perf.h_p50;
              if h.Perf.h_p99 <> want "p99_ns" then
                drift "%s: %s p99 moved %d -> %d" name k (want "p99_ns")
                  h.Perf.h_p99;
              (* The file stores mean_ns at %.1f; compare at that
                 precision so parsing noise cannot fire the gate. *)
              let base_mean =
                match num (List.assoc_opt "mean_ns" fields) with
                | Some f -> Printf.sprintf "%.1f" f
                | None -> die "%s: histogram %s lacks mean_ns" name k
              in
              let cur_mean = Printf.sprintf "%.1f" h.Perf.h_mean in
              if base_mean <> cur_mean then
                drift "%s: %s mean moved %s -> %s" name k base_mean cur_mean))
    baseline

let check_experiment v =
  let name =
    match str (J.member "name" v) with
    | Some n -> n
    | None -> die "experiment without a name"
  in
  let target =
    match List.assoc_opt name (Perf.targets @ Perf.paperscale_targets) with
    | Some fn -> fn
    | None ->
        die "baseline names unknown target %S (trajectory file stale?)" name
  in
  Printf.printf "regress %-28s %!" name;
  let fresh = target () in
  (* sim_ms is compared at the file's own %.6f rendering: the value is
     deterministic, only its decimal image is quantized. *)
  (match num (J.member "sim_ms" v) with
  | None -> die "%s: no sim_ms" name
  | Some base ->
      let base_s = Printf.sprintf "%.6f" base in
      let cur_s = Printf.sprintf "%.6f" fresh.Perf.sim_ms in
      if base_s <> cur_s then
        drift "%s: sim_ms moved %s -> %s" name base_s cur_s);
  (match obj (J.member "counters" v) with
  | None -> die "%s: no counters" name
  | Some c -> check_counters ~name c fresh.Perf.counters);
  (match obj (J.member "histograms" v) with
  | None -> die "%s: no histograms" name
  | Some h -> check_histos ~name h fresh.Perf.histos);
  let base_wall =
    match num (J.member "wall_s" v) with
    | None -> die "%s: no wall_s" name
    | Some w -> w
  in
  let budget = Float.max wall_floor_s (base_wall *. wall_slack) in
  if fresh.Perf.wall_s > budget then
    drift "%s: wall regression %.3fs > %.3fs (baseline %.3fs x %.1f)" name
      fresh.Perf.wall_s budget base_wall wall_slack;
  Printf.printf "wall %6.2fs (baseline %6.2fs)  sim %10.2fms\n%!"
    fresh.Perf.wall_s base_wall fresh.Perf.sim_ms

let run ~file =
  let text =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error e -> die "cannot read %s: %s" file e
  in
  let v =
    match J.parse text with
    | Ok v -> v
    | Error msg -> die "%s: bad JSON: %s" file msg
  in
  let experiments =
    match J.member "experiments" v with
    | Some (J.Arr l) -> l
    | Some _ | None -> die "%s: no experiments array" file
  in
  (* Same precondition as the capture path: attribution histograms
     resolve at boot, so the flag must be on before any system boots. *)
  Trace.set_attribution true;
  List.iter check_experiment experiments;
  match List.rev !drifts with
  | [] ->
      Printf.printf "regress: trajectory %s holds (%d experiments)\n" file
        (List.length experiments)
  | ds ->
      List.iter (fun d -> Printf.eprintf "regress: DRIFT %s\n" d) ds;
      exit 1
