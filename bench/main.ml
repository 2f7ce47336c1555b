(* Benchmark entry point.

   Usage:
     dune exec bench/main.exe              # every table and figure
     dune exec bench/main.exe fig7a fig12  # selected experiments
     dune exec bench/main.exe bechamel     # wall-clock primitive costs
     dune exec bench/main.exe list         # what exists
     dune exec bench/main.exe -- --json BENCH_tag.json [target...]
                                           # wall-clock perf harness *)

let list_experiments () =
  print_endline "available experiments:";
  List.iter
    (fun (key, desc, _) -> Printf.printf "  %-8s %s\n" key desc)
    Experiments.all;
  print_endline "  bechamel wall-clock primitive-operation costs";
  print_endline "perf targets (--json FILE [target...]):";
  List.iter (fun (n, _) -> Printf.printf "  %s\n" n) Perf.targets;
  print_endline "paper-scale perf targets (by explicit name only):";
  List.iter (fun (n, _) -> Printf.printf "  %s\n" n) Perf.paperscale_targets;
  print_endline "  --alloc-smoke   assert each kernel's fault- and hit-path allocation budgets";
  print_endline
    "  --regress FILE  re-run a committed BENCH_*.json and fail on counter \
     drift or wall-clock regression"

let run_one key =
  match List.find_opt (fun (k, _, _) -> k = key) Experiments.all with
  | Some (_, _, fn) ->
      let t0 = Sys.time () in
      fn ();
      Printf.printf "\n (cpu time: %.1fs)\n%!" (Sys.time () -. t0)
  | None ->
      Printf.eprintf "unknown experiment %S; try 'list'\n" key;
      exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: [] ->
      print_endline "DiLOS reproduction: regenerating every table and figure.";
      List.iter (fun (k, _, _) -> run_one k) Experiments.all;
      Bechamel_suite.run ()
  | _ :: [ "list" ] -> list_experiments ()
  | _ :: [ "bechamel" ] -> Bechamel_suite.run ()
  | _ :: "--json" :: file :: keys -> Perf.run_json ~file keys
  | _ :: "--regress" :: (_ :: _ as files) ->
      List.iter (fun file -> Regress.run ~file) files
  | _ :: [ "--regress" ] ->
      Printf.eprintf "--regress needs a baseline file (e.g. BENCH_observatory.json)\n";
      exit 1
  | _ :: [ "--alloc-smoke" ] -> Perf.alloc_smoke ()
  | _ :: [ "--json" ] ->
      Printf.eprintf "--json needs an output file (e.g. BENCH_base.json)\n";
      exit 1
  | _ :: keys -> List.iter run_one keys
  | [] -> assert false
