(* dilos_sim: run any workload on any memory-disaggregation system
   from the command line.

     dune exec bin/dilos_sim.exe -- run --workload quicksort \
       --system dilos --prefetch readahead --local-mb 8 --scale 1000000

   Prints completion time, throughput-style metrics and the paging
   counters for the run. *)

open Cmdliner
module H = Apps.Harness

(* ------------------------------------------------------------------ *)
(* The shared option set: every flag that more than one subcommand
   takes is declared once here, and the subcommands below are composed
   from these terms. A bad value is a usage error naming the flag,
   raised while parsing — before any system boots. *)

let checked conv what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let pos_int = checked Arg.int "a positive integer" (fun n -> n > 0)

let pos_float =
  checked Arg.float "a finite positive number" (fun x -> Float.is_finite x && x > 0.)

let fraction = checked Arg.float "a fraction in [0,1]" (fun x -> x >= 0. && x <= 1.)

(* [Arg.enum] over values that hold closures (catalog entries, drill
   programs): printed through [name], never compared structurally. *)
let enum_by_name choices name =
  let print ppf v = Format.pp_print_string ppf (name v) in
  Arg.(conv (conv_parser (enum choices), print))

(* One term for --system and --prefetch; the prefetcher applies to the
   DiLOS systems only. *)
let system =
  let ra = Dilos.Kernel.Readahead in
  let systems =
    [
      ("dilos", H.Dilos ra);
      ("dilos-guided", H.Dilos_guided ra);
      ("dilos-tcp", H.Dilos_tcp ra);
      ("fastswap", H.Fastswap);
      ("aifm", H.Aifm);
      ("aifm-rdma", H.Aifm_rdma);
    ]
  in
  let prefetchers =
    Dilos.Kernel.[ ("none", No_prefetch); ("readahead", Readahead); ("trend", Trend_based) ]
  in
  let sys =
    Arg.(
      value & opt (enum systems) (H.Dilos ra) & info [ "s"; "system" ] ~doc:"Memory system.")
  in
  let prefetch =
    Arg.(
      value & opt (enum prefetchers) ra
      & info [ "p"; "prefetch" ] ~doc:"DiLOS prefetcher (none|readahead|trend).")
  in
  let with_prefetch sys p =
    match sys with
    | H.Dilos _ -> H.Dilos p
    | H.Dilos_guided _ -> H.Dilos_guided p
    | H.Dilos_tcp _ -> H.Dilos_tcp p
    | (H.Fastswap | H.Fastswap_no_ra | H.Aifm | H.Aifm_rdma) as s -> s
  in
  Term.(const with_prefetch $ sys $ prefetch)

let local_mb default =
  Arg.(value & opt pos_int default & info [ "local-mb" ] ~doc:"Local DRAM budget in MiB.")

let seed ~doc = Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let scale ~doc = Arg.(value & opt (some pos_int) None & info [ "scale" ] ~doc)

(* A parsed --faults campaign; [text] is the spec as given, which the
   serve report echoes verbatim. *)
type faults = { spec : Faults.Spec.t; text : string; fault_seed : int }

let faults =
  let spec =
    let parse text = Result.map (fun spec -> (text, spec)) (Faults.Spec.parse text) in
    let print ppf (text, _) = Format.pp_print_string ppf text in
    Arg.(
      value
      & opt (some (conv' (parse, print))) None
      & info [ "faults" ]
          ~docv:"SPEC"
          ~doc:
            "Deterministic fault-injection scenario for the RDMA data path. \
             A comma-separated list of presets (flaky|lossy|blackout|meltdown) \
             and key=value settings: err=RATE, nack=RATE, dup=RATE, \
             nack-delay=DUR, timeout=DUR, retries=N, backoff=DUR, \
             backoff-max=DUR, blackout=LEN@START, blackout-every=DUR, \
             blackout-len=DUR. Durations take ns/us/ms/s suffixes. Example: \
             --faults flaky,err=0.05,blackout-every=10ms.")
  in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ]
          ~doc:"Seed for the fault campaign RNG (same seed, same faults).")
  in
  Term.(
    const (fun spec fault_seed ->
        Option.map (fun (text, spec) -> { spec; text; fault_seed }) spec)
    $ spec $ fault_seed)

(* [Harness.run] under the --faults campaign, if any. *)
let run_system ?cores ?obs ?observe faults system ~local_mem f =
  H.run system ~local_mem ?cores ?obs ?observe
    ?fault_spec:(Option.map (fun f -> f.spec) faults)
    ?fault_seed:(Option.map (fun f -> f.fault_seed) faults)
    f

let breakdown =
  Arg.(
    value & flag
    & info [ "breakdown" ]
        ~doc:
          "Attribute every major fault's latency to \
           kernel/queueing/wire/backoff components (the paper's Fig. 9) and \
           print the per-component histogram table (per point under serve).")

let json_file what =
  let doc = Printf.sprintf "Write the %s as JSON. Same seed, byte-identical file." what in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let verbose ~doc = Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* The drill program table, by name: --app of drill and report. *)
let drill_programs =
  List.map (fun (p : Apps.Drill.program) -> (p.name, p)) Apps.Drill.programs

let print_breakdown stats =
  let rows = Trace.breakdown stats in
  if rows = [] then
    print_endline "breakdown: no attributed faults (no remote fetches?)"
  else begin
    let us ns = float_of_int ns /. 1e3 in
    let total_mean =
      List.fold_left (fun acc r -> acc +. r.Trace.bd_mean) 0. rows
    in
    print_endline
      "breakdown: component      count    mean(us)    p50(us)    p99(us)  \
       share";
    List.iter
      (fun r ->
        Printf.printf "           %-10s %9d %11.3f %10.3f %10.3f %5.1f%%\n"
          r.Trace.bd_label r.Trace.bd_count (r.Trace.bd_mean /. 1e3)
          (us r.Trace.bd_p50) (us r.Trace.bd_p99)
          (if total_mean > 0. then 100. *. r.Trace.bd_mean /. total_mean
           else 0.))
      rows;
    let mean_fault =
      match Sim.Stats.histogram_opt stats "fault_ns" with
      | Some h when Sim.Histogram.count h > 0 -> Sim.Histogram.mean h
      | Some _ | None -> 0.
    in
    Printf.printf
      "           components sum to %.3f us; measured mean fault %.3f us\n"
      (total_mean /. 1e3) (mean_fault /. 1e3)
  end

(* Footer shared by run and serve: the fault summary, then [artifacts]
   (run's trace/metrics/obs lines), the breakdown and the counters. *)
let print_footer ?(artifacts = ignore) ?counters_title faults ~breakdown
    ~verbose stats =
  (match faults with
  | None -> ()
  | Some f ->
      let g k = Sim.Stats.get stats k in
      Printf.printf "faults:    %s (seed %d)\n"
        (Format.asprintf "%a" Faults.Spec.pp f.spec)
        f.fault_seed;
      Printf.printf
        "           comp-errors %d, timeouts %d, retries %d, nack-delays %d, \
         dup-cqes %d, perm-failures %d\n"
        (g "rdma_comp_errors") (g "rdma_timeouts") (g "rdma_retries")
        (g "rdma_retrans_delays") (g "rdma_dup_completions")
        (g "rdma_perm_failures"));
  artifacts ();
  if breakdown then print_breakdown stats;
  if verbose then begin
    Option.iter print_endline counters_title;
    List.iter
      (fun (k, v) -> Printf.printf "  %-28s %d\n" k v)
      (Sim.Stats.counters stats)
  end

(* A [Term.ret] usage error (exit 124) with a message naming the flag. *)
let error fmt = Printf.ksprintf (fun msg -> `Error (true, msg)) fmt

(* Flags that are valid one by one but that this workload, on this
   system, would silently ignore. A guide hooks Redis and needs a
   DiLOS kernel to host it. *)
let check_run (w : Apps.Catalog.entry) system cores app_aware =
  let dilos =
    match system with
    | H.Dilos _ | H.Dilos_guided _ | H.Dilos_tcp _ -> true
    | H.Fastswap | H.Fastswap_no_ra | H.Aifm | H.Aifm_rdma -> false
  in
  if cores > 1 && not w.Apps.Catalog.multicore then
    error "--cores %d: %s is single-threaded" cores w.Apps.Catalog.name
  else if app_aware && not (w.Apps.Catalog.guide && dilos) then
    error
      "--app-aware: no guide for %s on %s (only redis-get and redis-lrange \
       on dilos, dilos-guided or dilos-tcp)"
      w.Apps.Catalog.name (H.system_name system)
  else `Ok ()

(* [rows] are a health monitor's ticks, newest first: (time, counter
   deltas). The columns are the counters of the last tick's snapshot;
   an earlier row reads 0 for a counter created after it. *)
let write_metrics_csv file rows =
  let names = match rows with (_, last) :: _ -> List.map fst last | [] -> [] in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (String.concat "," ("t_us" :: names));
      output_char oc '\n';
      List.iter
        (fun (t, deltas) ->
          Printf.fprintf oc "%Ld.%03Ld" (Int64.div t 1000L) (Int64.rem t 1000L);
          List.iter
            (fun n ->
              Printf.fprintf oc ",%d"
                (Option.value (List.assoc_opt n deltas) ~default:0))
            names;
          output_char oc '\n')
        (List.rev rows))

let run_workload (w : Apps.Catalog.entry) system local_mb scale scale_preset
    app_aware cores seed faults trace_file trace_cats trace_validate
    metrics_file metrics_interval_us obs_out breakdown verbose =
  (* A preset pins both knobs to the catalog's dims; explicit
     --scale/--local-mb are ignored when one is given. *)
  let scale, local_mem =
    match scale_preset with
    | None -> (Option.value scale ~default:500_000, local_mb * 1024 * 1024)
    | Some preset ->
        let d = Apps.Catalog.dims preset w in
        (d.Apps.Catalog.scale, d.Apps.Catalog.local_mem)
  in
  (* Attribution histograms are resolved at boot, so the flag must be
     set before the harness boots the kernel. *)
  if breakdown then Trace.set_attribution true;
  (* Same boot-time rule for the Observatory: the registry must be
     ambient before the kernel and QPs resolve their handles. *)
  let obs_reg = Option.map (fun _ -> Obs.Registry.create ()) obs_out in
  let tracer = ref None in
  (* --metrics rides on a health monitor whose one rule keeps each
     tick's (time, counter deltas) and never fires. *)
  let monitor = ref None in
  let rows = ref [] in
  let keep_row v =
    rows := (v.Obs.Health.v_now, v.Obs.Health.v_deltas) :: !rows;
    []
  in
  let observe ctx =
    (match trace_file with
    | None -> ()
    | Some _ ->
        let cats = Option.map (String.split_on_char ',') trace_cats in
        let tr = Trace.create ~eng:ctx.H.eng ?cats () in
        Trace.install tr;
        tracer := Some tr);
    match metrics_file with
    | None -> ()
    | Some _ ->
        monitor :=
          Some
            (Obs.Health.start ~eng:ctx.H.eng ~stats:ctx.H.stats
               ~interval:(Sim.Time.us metrics_interval_us)
               ~rules:[ Obs.Health.rule ~id:"metrics" ~severity:Info keep_row ]
               ())
  in
  let result =
    run_system ~cores ?obs:obs_reg ~observe faults system ~local_mem (fun ctx ->
        if app_aware then ignore (Apps.Redis_guide.install ctx);
        w.Apps.Catalog.run ctx ~scale ~seed ~cores)
  in
  Printf.printf "system:    %s%s\n" (H.system_name system)
    (if app_aware then " + app-aware guide" else "");
  Printf.printf "local mem: %d MiB\n" (local_mem / (1024 * 1024));
  Printf.printf "result:    %s\n" result.H.value;
  Printf.printf "simulated: %.3f ms\n" (Sim.Time.to_ms result.H.elapsed);
  Printf.printf "traffic:   rx %.2f MB, tx %.2f MB\n"
    (float_of_int result.H.rx_bytes /. 1e6)
    (float_of_int result.H.tx_bytes /. 1e6);
  let artifacts () =
    (match (trace_file, !tracer) with
    | Some file, Some tr ->
        Trace.write_json tr file;
        Printf.printf "trace:     %s (%d events, %d dropped)\n" file
          (Trace.recorded tr) (Trace.dropped tr);
        Trace.uninstall ();
        if trace_validate then begin
          let text =
            In_channel.with_open_bin file (fun ic -> In_channel.input_all ic)
          in
          match Json.parse text with
          | Ok v ->
              let events =
                match Json.member "traceEvents" v with
                | Some (Json.Arr l) -> List.length l
                | Some _ | None ->
                    Printf.eprintf "dilos_sim: trace has no traceEvents array\n";
                    exit 1
              in
              Printf.printf "trace-validate: ok (%d JSON events)\n" events
          | Error msg ->
              Printf.eprintf "dilos_sim: trace JSON invalid: %s\n" msg;
              exit 1
        end
    | (Some _ | None), _ -> ());
    (match (metrics_file, !monitor) with
    | Some file, Some m ->
        write_metrics_csv file !rows;
        Printf.printf "metrics:   %s (%d intervals of %d us)\n" file
          (Obs.Health.ticks m) metrics_interval_us
    | (Some _ | None), _ -> ());
    (match (obs_out, obs_reg) with
    | Some file, Some reg ->
        Obs.Openmetrics.write ~stats:result.H.run_stats reg file;
        Printf.printf "obs:       %s (OpenMetrics)\n" file
    | _ -> ())
  in
  print_footer ~artifacts ~counters_title:"counters:" faults ~breakdown ~verbose
    result.H.run_stats

let run_cmd, run_term =
  let workload =
    let names = List.map (fun e -> (e.Apps.Catalog.name, e)) Apps.Catalog.entries in
    Arg.(
      required
      & opt (some (enum_by_name names (fun e -> e.Apps.Catalog.name))) None
      & info [ "w"; "workload"; "app" ] ~docv:"WORKLOAD"
          ~doc:("Workload to run: " ^ doc_alts_enum names ^ "."))
  in
  let scale_preset =
    Arg.(
      value
      & opt
          (some (enum Apps.Catalog.[ ("paper", Paper); ("reduced", Reduced) ]))
          None
      & info [ "scale-preset" ]
          ~docv:"PRESET"
          ~doc:
            "Run the workload at a canonical scale instead of --scale: \
             $(b,paper) is the source paper's evaluation scale (20 GiB \
             working sets, 8 GiB local DRAM), $(b,reduced) the seconds-long \
             bench/CI scale. Overrides --scale and --local-mb.")
  in
  let app_aware =
    Arg.(
      value & flag
      & info [ "app-aware" ]
          ~doc:
            "Install the Redis app-aware prefetch guide (redis-get and \
             redis-lrange on the dilos systems only).")
  in
  let cores =
    Arg.(
      value & opt pos_int 1
      & info [ "cores" ] ~doc:"Simulated cores (multi-threaded workloads only).")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a deterministic trace of the paging data path and write \
             it as Chrome/Perfetto trace_event JSON (load in ui.perfetto.dev \
             or chrome://tracing). Same seed, byte-identical file.")
  in
  let trace_cats =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-cats" ] ~docv:"LIST"
          ~doc:
            "Comma-separated trace categories to record \
             (fault,prefetch,rdma,swap,memnode). Default: all.")
  in
  let trace_validate =
    Arg.(
      value & flag
      & info [ "trace-validate" ]
          ~doc:
            "After writing the trace, parse the JSON back and fail (exit 1) \
             if it is malformed. Used by CI smoke tests.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write interval-sampled counter deltas as CSV (one row per \
             sampling interval) for time-series plots of fault/fetch rates.")
  in
  let metrics_interval_us =
    Arg.(
      value & opt pos_int 100
      & info [ "metrics-interval-us" ] ~docv:"N"
          ~doc:"Sampling interval for --metrics, in simulated microseconds.")
  in
  let obs_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-out" ] ~docv:"FILE"
          ~doc:
            "Install an Observatory metric registry for the run and write the \
             labeled families plus the flat counters as an OpenMetrics \
             (Prometheus text) exposition. Deterministic: same seed, \
             byte-identical file.")
  in
  let valid = Term.(ret (const check_run $ workload $ system $ cores $ app_aware)) in
  let term =
    Term.(
      const (fun () -> run_workload)
      $ valid $ workload $ system $ local_mb 1
      $ scale ~doc:"Workload size (elements/rows/keys/pages); default 500000."
      $ scale_preset $ app_aware $ cores
      $ seed ~doc:"RNG seed." $ faults $ trace_file $ trace_cats $ trace_validate
      $ metrics_file $ metrics_interval_us $ obs_out $ breakdown
      $ verbose ~doc:"Dump counters.")
  in
  (Cmd.v (Cmd.info "run" ~doc:"Run one workload on one system") term, term)

(* ------------------------------------------------------------------ *)
(* serve: open-loop Zipf serving harness (coordinated-omission-free
   tail latency; see DESIGN.md §7). *)

let value_size_conv =
  let parse s =
    if String.equal s "fb" then Ok Workload.Stream.Fb_mixed
    else
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok (Workload.Stream.Fixed n)
      | Some _ | None ->
          Error (`Msg "value size must be a positive byte count or \"fb\"")
  in
  let print ppf = function
    | Workload.Stream.Fixed n -> Format.fprintf ppf "%d" n
    | Workload.Stream.Fb_mixed -> Format.pp_print_string ppf "fb"
  in
  Arg.conv (parse, print)

let arrival_conv =
  Arg.enum
    [ ("poisson", Workload.Arrival.Poisson); ("fixed", Workload.Arrival.Fixed) ]

(* Deterministic JSON: fixed field order, fixed float precision, no
   wall-clock anywhere — the same seed must produce a byte-identical
   file (CI asserts this). *)
let serve_json oc ~system_name ~local_mb ~seed ~fault_desc
    (points : (float * Apps.Serving.result) list) =
  let p fmt = Printf.fprintf oc fmt in
  let lat (r : Apps.Redis_bench.result) =
    Printf.sprintf
      "{\"kind\": \"%s\", \"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": \
       %.3f}"
      (Apps.Redis_bench.latency_kind_name r.Apps.Redis_bench.latency_kind)
      r.Apps.Redis_bench.p50_us r.Apps.Redis_bench.p99_us
      r.Apps.Redis_bench.p999_us
  in
  p "{\n  \"system\": \"%s\",\n  \"local_mb\": %d,\n  \"seed\": %d,\n"
    system_name local_mb seed;
  p "  \"faults\": %s,\n"
    (match fault_desc with
    | None -> "null"
    | Some d -> Printf.sprintf "\"%s\"" d);
  p "  \"points\": [\n";
  List.iteri
    (fun i (offered, (r : Apps.Serving.result)) ->
      p "    {\"offered_rps\": %.1f, \"achieved_rps\": %.1f, " offered
        r.Apps.Serving.achieved_rps;
      p "\"completed\": %d, \"gets\": %d, \"sets\": %d, " r.Apps.Serving.completed
        r.Apps.Serving.gets r.Apps.Serving.sets;
      p "\"duration_ms\": %.3f, \"max_queue\": %d,\n"
        (Sim.Time.to_ms r.Apps.Serving.duration)
        r.Apps.Serving.max_queue;
      p "     \"response\": %s,\n     \"service\": %s,\n"
        (lat r.Apps.Serving.response) (lat r.Apps.Serving.service);
      p "     \"phases\": [";
      List.iteri
        (fun j (ph : Apps.Serving.phase) ->
          p "%s{\"phase\": %d, \"requests\": %d, \"response\": %s, \
             \"service\": %s}"
            (if j = 0 then "" else ", ")
            ph.Apps.Serving.phase_index
            ph.Apps.Serving.ph_response.Apps.Redis_bench.requests
            (lat ph.Apps.Serving.ph_response)
            (lat ph.Apps.Serving.ph_service))
        r.Apps.Serving.phases;
      p "]}%s\n" (if i = List.length points - 1 then "" else ","))
    points;
  p "  ]\n}\n"

let run_serve system local_mb seed keys value_size arrival rates zipf rw_mix
    duration_s requests phases workers json_file faults breakdown verbose =
  let local_mem = local_mb * 1024 * 1024 in
  if breakdown then Trace.set_attribution true;
  let point offered =
    let n =
      if requests > 0 then requests
      else Int.max 1 (int_of_float (Float.round (offered *. duration_s)))
    in
    let scfg =
      {
        Workload.Stream.keys;
        theta = zipf;
        read_fraction = rw_mix;
        value_size;
        arrival;
        rate_rps = offered;
        seed;
      }
    in
    let cfg = { Apps.Serving.stream = scfg; requests = n; phases; workers } in
    run_system faults system ~local_mem (fun ctx -> Apps.Serving.run ctx cfg)
  in
  Printf.printf "system:    %s\n" (H.system_name system);
  Printf.printf "local mem: %d MiB\n" (local_mem / (1024 * 1024));
  Printf.printf
    "workload:  %d keys, zipf %.2f, %.0f%% reads, %s arrivals, seed %d\n" keys
    zipf (rw_mix *. 100.)
    (match arrival with
    | Workload.Arrival.Poisson -> "poisson"
    | Workload.Arrival.Fixed -> "fixed")
    seed;
  print_endline
    "  offered(rps)  achieved(rps)   done  maxq   resp p50/p99/p99.9 (us)      \
     svc p50/p99 (us)";
  let results =
    List.map
      (fun offered ->
        let res = point offered in
        let r = res.H.value in
        let rr = r.Apps.Serving.response and sv = r.Apps.Serving.service in
        Printf.printf
          "  %12.0f  %13.0f %6d %5d   %8.1f %8.1f %8.1f   %8.1f %8.1f\n%!"
          offered r.Apps.Serving.achieved_rps r.Apps.Serving.completed
          r.Apps.Serving.max_queue rr.Apps.Redis_bench.p50_us
          rr.Apps.Redis_bench.p99_us rr.Apps.Redis_bench.p999_us
          sv.Apps.Redis_bench.p50_us sv.Apps.Redis_bench.p99_us;
        if phases > 1 then
          List.iter
            (fun (ph : Apps.Serving.phase) ->
              let pr = ph.Apps.Serving.ph_response in
              Printf.printf
                "      phase %d: %d reqs, resp p99 %.1f us, svc p99 %.1f us\n"
                ph.Apps.Serving.phase_index pr.Apps.Redis_bench.requests
                pr.Apps.Redis_bench.p99_us
                ph.Apps.Serving.ph_service.Apps.Redis_bench.p99_us)
            r.Apps.Serving.phases;
        print_footer faults ~breakdown ~verbose res.H.run_stats;
        (offered, r))
      rates
  in
  match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      serve_json oc ~system_name:(H.system_name system) ~local_mb ~seed
        ~fault_desc:(Option.map (fun f -> f.text) faults)
        results;
      close_out oc;
      Printf.printf "report:    %s\n" file

let serve_cmd =
  let keys =
    Arg.(value & opt pos_int 4096 & info [ "keys" ] ~doc:"Keyspace size.")
  in
  let value_size =
    Arg.(
      value
      & opt value_size_conv (Workload.Stream.Fixed 4080)
      & info [ "value-size" ] ~docv:"BYTES|fb"
          ~doc:
            "Value size in bytes, or \"fb\" for the Facebook-photo mixed \
             distribution. Default 4080 (one page with the SDS header).")
  in
  let arrival =
    Arg.(
      value
      & opt arrival_conv Workload.Arrival.Poisson
      & info [ "arrival" ] ~doc:"Arrival process (poisson|fixed).")
  in
  let rates =
    Arg.(
      value
      & opt (list pos_float) [ 50_000. ]
      & info [ "arrival-rate" ] ~docv:"RPS[,RPS...]"
          ~doc:
            "Offered load in requests per second of simulated time. A \
             comma-separated list runs one fresh system per rate, for an \
             offered-vs-achieved knee curve.")
  in
  let zipf =
    Arg.(
      value & opt float 0.99
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:"Zipf key-popularity skew; 0 = uniform, 0.99 = YCSB-style.")
  in
  let rw_mix =
    Arg.(
      value & opt fraction 0.95
      & info [ "rw-mix" ] ~docv:"READ_FRACTION"
          ~doc:"Fraction of requests that are GETs (rest are SETs).")
  in
  let duration_s =
    Arg.(
      value & opt pos_float 0.25
      & info [ "duration-s" ]
          ~doc:
            "Simulated seconds of offered load per point; the request count \
             is rate * duration unless --requests overrides it.")
  in
  let requests =
    Arg.(
      value & opt int 0
      & info [ "requests" ]
          ~doc:"Exact request count per point (0 = derive from duration).")
  in
  let phases =
    Arg.(
      value & opt pos_int 1
      & info [ "phases" ] ~doc:"Report percentiles per N equal-count phases.")
  in
  let workers =
    Arg.(
      value & opt pos_int 1
      & info [ "workers" ]
          ~doc:"Server fibers draining the queue (1 = single-threaded Redis).")
  in
  let term =
    Term.(
      const run_serve $ system $ local_mb 4 $ seed ~doc:"Workload seed." $ keys
      $ value_size $ arrival $ rates $ zipf $ rw_mix $ duration_s $ requests
      $ phases $ workers
      $ json_file "sweep report"
      $ faults $ breakdown $ verbose ~doc:"Dump counters.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-loop Zipf serving harness: offered load on the simulated \
          clock, response-time tails that include queueing delay \
          (coordinated-omission-free), saturation-knee sweeps")
    term

(* ------------------------------------------------------------------ *)
(* drill: scripted shard-kill recovery drills on a replicated memory
   node (see DESIGN.md §9). Exit codes: 0 ok, 1 digest mismatch,
   4 page irrecoverably lost (every replica dead), 124 usage. *)

let check_drill shards replication kill_shard =
  if replication < 1 || shards < replication then
    error "--replication %d: need 1 <= replication <= --shards (%d)"
      replication shards
  else if kill_shard < 0 || kill_shard >= shards then
    error "--kill-shard %d: out of range for %d shards" kill_shard shards
  else `Ok ()

let run_drill system programs local_mb scale seed shards replication kill_shard
    detect_us recover_after_us json_file verbose =
  Printf.printf "system:    %s\n" (H.system_name system);
  Printf.printf "replicas:  %d shards, replication %d, kill shard %d\n" shards
    replication kill_shard;
  let results =
    List.map
      (fun program ->
        let r =
          Apps.Drill.run ~system ~program ?scale
            ~local_mem:(local_mb * 1024 * 1024) ~seed ~shards ~replication
            ~kill_shard
            ~detect:(Sim.Time.us detect_us)
            ?recover_after:(Option.map Sim.Time.us recover_after_us) ()
        in
        Format.printf "  %a@." Apps.Drill.pp r;
        if verbose then print_string (Apps.Drill.to_json r);
        r)
      (List.concat programs)
  in
  (match json_file with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Apps.Drill.report_json results));
      Printf.printf "report:    %s\n" file);
  if List.exists (fun r -> not r.Apps.Drill.r_match) results then begin
    Printf.eprintf "dilos_sim: drill digest MISMATCH — data diverged\n";
    exit 1
  end

let drill_cmd =
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Memnode shard instances.")
  in
  let replication =
    Arg.(value & opt int 2 & info [ "replication" ] ~doc:"Copies per page.")
  in
  let kill_shard =
    Arg.(value & opt int 0 & info [ "kill-shard" ] ~doc:"Shard to kill.")
  in
  let detect_us =
    Arg.(
      value & opt int 50
      & info [ "detect-us" ]
          ~doc:
            "Failure-detection outage: a blackout window of this many \
             microseconds starts at the kill instant.")
  in
  let recover_after_us =
    Arg.(
      value
      & opt (some int) None
      & info [ "recover-after-us" ]
          ~doc:
            "Also restart the killed shard this many simulated microseconds \
             after the kill and re-replicate in the background.")
  in
  (* "all" is one more choice, so each choice is a list of programs. *)
  let programs =
    let choices =
      ("all", Apps.Drill.programs)
      :: List.map (fun (n, p) -> (n, [ p ])) drill_programs
    in
    let name = function [ (p : Apps.Drill.program) ] -> p.name | _ -> "all" in
    Arg.(
      value
      & opt (list (enum_by_name choices name)) [ Apps.Drill.programs ]
      & info [ "a"; "app" ] ~docv:"APPS"
          ~doc:
            ("Comma-separated drill programs, each " ^ doc_alts_enum choices
           ^ "."))
  in
  let valid = Term.(ret (const check_drill $ shards $ replication $ kill_shard)) in
  let term =
    Term.(
      const (fun () -> run_drill)
      $ valid $ system $ programs $ local_mb 1
      $ scale ~doc:"Workload size override (per-app default otherwise)."
      $ seed ~doc:"Drives the workload, the kill instant and the fault RNG."
      $ shards $ replication $ kill_shard $ detect_us $ recover_after_us
      $ json_file "drill report"
      $ verbose ~doc:"Print per-app JSON.")
  in
  Cmd.v
    (Cmd.info "drill"
       ~doc:
         "Recovery drill: run a kernel on a replicated memory node, kill a \
          shard at a seeded instant, verify the result is bit-identical to a \
          failure-free run, and report failover/recovery metrics")
    term

(* ------------------------------------------------------------------ *)
(* report: the Observatory scenario matrix (see DESIGN.md §6). One
   seed through clean / flaky / flaky-kill / overload, each with a
   fresh labeled registry, health monitor, tracer and attribution;
   emits a deterministic JSON run-report plus optional OpenMetrics and
   flamegraph collapsed-stack artifacts. Exit codes: 0 ok, 1 health
   signature or reconciliation failure, 4 page irrecoverably lost,
   124 usage. *)

let run_report system (program : Apps.Drill.program) local_mb scale seed
    json_file om_file folded_file check verbose =
  let outcomes =
    Apps.Observatory.run_matrix ~system ~program ?scale
      ~local_mem:(local_mb * 1024 * 1024) ~seed ()
  in
  Printf.printf "system:    %s\n" (H.system_name system);
  Printf.printf "matrix:    app %s, seed %d\n" program.name seed;
  List.iter
    (fun (o : Apps.Observatory.outcome) ->
      Printf.printf
        "  %-10s %8.3f ms, %2d health ticks, %d events%s, profile %s\n"
        o.Apps.Observatory.o_name
        (float_of_int o.Apps.Observatory.o_elapsed_ns /. 1e6)
        o.Apps.Observatory.o_ticks
        (List.length o.Apps.Observatory.o_events)
        (match o.Apps.Observatory.o_digest with
        | Some _ -> ""
        | None -> " (serving)")
        (if Apps.Observatory.reconciles o then "reconciles" else "DOES NOT RECONCILE");
      List.iter
        (fun (e : Obs.Health.event) ->
          Printf.printf "      [%s] %s%s value=%d threshold=%d @ %.3f ms\n"
            (Obs.Health.severity_name e.Obs.Health.he_severity)
            e.Obs.Health.he_rule
            (if e.Obs.Health.he_subject = "" then ""
             else " {" ^ e.Obs.Health.he_subject ^ "}")
            e.Obs.Health.he_value e.Obs.Health.he_threshold
            (Int64.to_float e.Obs.Health.he_t /. 1e6))
        o.Apps.Observatory.o_events)
    outcomes;
  let fired = Apps.Observatory.event_rules outcomes in
  Printf.printf "rules:     %s\n"
    (if fired = [] then "(none fired)" else String.concat ", " fired);
  (match json_file with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Apps.Observatory.report_json ~system ~seed outcomes));
      Printf.printf "report:    %s\n" file);
  let kill_outcome =
    List.find
      (fun o -> o.Apps.Observatory.o_name = "flaky-kill")
      outcomes
  in
  (match om_file with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Apps.Observatory.openmetrics kill_outcome));
      Printf.printf "metrics:   %s (OpenMetrics, flaky-kill scenario)\n" file);
  (match folded_file with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Apps.Observatory.folded kill_outcome));
      Printf.printf "profile:   %s (collapsed stacks, flaky-kill scenario; \
                     feed to flamegraph.pl)\n"
        file);
  if verbose then
    print_string (Apps.Observatory.report_json ~system ~seed outcomes);
  if check then begin
    let clean_quiet =
      List.for_all
        (fun o ->
          o.Apps.Observatory.o_name <> "clean"
          || o.Apps.Observatory.o_events = [])
        outcomes
    in
    let expected = [ "queue-depth-ceiling"; "resync-backlog"; "retry-storm" ] in
    let missing = List.filter (fun r -> not (List.mem r fired)) expected in
    let reconciled = List.for_all Apps.Observatory.reconciles outcomes in
    if not clean_quiet then
      Printf.eprintf "dilos_sim: clean scenario fired health events\n";
    if missing <> [] then
      Printf.eprintf "dilos_sim: expected rules did not fire: %s\n"
        (String.concat ", " missing);
    if not reconciled then
      Printf.eprintf "dilos_sim: a profile does not reconcile with its \
                      attribution sums\n";
    if (not clean_quiet) || missing <> [] || not reconciled then exit 1
  end

let report_cmd =
  let om_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "openmetrics" ] ~docv:"FILE"
          ~doc:"Write the flaky-kill scenario's OpenMetrics exposition.")
  in
  let folded_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write the flaky-kill scenario's flamegraph collapsed stacks \
             (sim-time weights; render with flamegraph.pl or speedscope).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Fail (exit 1) unless the health signature holds: clean fires \
             nothing, retry-storm / resync-backlog / queue-depth-ceiling all \
             fire somewhere in the matrix, and every scenario's flame profile \
             reconciles exactly with its fault-attribution sums.")
  in
  let term =
    Term.(
      const run_report $ system
      $ Arg.(
          value
          & opt
              (enum_by_name drill_programs (fun p -> p.Apps.Drill.name))
              Apps.Drill.seq
          & info [ "a"; "app" ] ~docv:"APP"
              ~doc:
                ("Drill program for the fault scenarios: "
                ^ doc_alts_enum drill_programs ^ "."))
      $ local_mb 1
      $ scale ~doc:"Workload size override (per-app default otherwise)."
      $ seed ~doc:"Drives the workloads, the kill instant and the fault RNG."
      $ json_file
          "run-report (per-scenario labeled metrics, health events, flame profile)"
      $ om_file $ folded_file $ check
      $ verbose ~doc:"Print the JSON report.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Observatory scenario matrix: run one seed through clean / flaky / \
          shard-kill / overload scenarios with labeled metrics, deterministic \
          health monitors and sim-time flame profiles, and emit a \
          byte-stable structured report")
    term

let () =
  let doc = "DiLOS memory-disaggregation simulator" in
  (* [run] is also the default command, so
     `dilos_sim.exe --app quicksort --trace t.json` works without the
     subcommand name. *)
  let cmd =
    Cmd.group ~default:run_term (Cmd.info "dilos_sim" ~doc)
      [ run_cmd; serve_cmd; drill_cmd; report_cmd ]
  in
  (* A page whose every replica is dead ends any subcommand with exit
     4; anything else uncaught is cmdliner's internal error (125). *)
  exit
    (try Cmd.eval ~catch:false cmd with
    | Dilos.Cpu.Page_lost addr ->
        Printf.eprintf
          "dilos_sim: page at 0x%Lx irrecoverably lost (every replica dead)\n"
          addr;
        4
    | exn ->
        Printf.eprintf "dilos_sim: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string exn);
        Cmd.Exit.internal_error)
