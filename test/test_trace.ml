(* The tracing subsystem (lib/trace): ring behavior, category
   filtering, span nesting and flow links, Perfetto JSON
   well-formedness (parsed back with Json), golden trace
   determinism across same-seed runs, and the zero-overhead-when-off
   contract (tracing must not move simulated results). *)

open Util
module H = Apps.Harness

(* Every test leaves the global tracer uninstalled, even on failure —
   a leaked tracer would silently record events in later suites. *)
let with_tracer ?capacity ?cats eng f =
  let t = Trace.create ~eng ?capacity ?cats () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () -> f t)

let parse_events json =
  match Json.parse json with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok v -> (
      match Json.member "traceEvents" v with
      | Some (Json.Arr evs) -> evs
      | _ -> Alcotest.fail "traceEvents missing or not an array")

let str_field name ev =
  match Json.member name ev with
  | Some (Json.Str s) -> Some s
  | _ -> None

(* Non-metadata events of one parsed trace. *)
let payload_events json =
  List.filter (fun e -> str_field "ph" e <> Some "M") (parse_events json)

let quicksort_run ?observe () =
  H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem:(256 * 1024) ?observe
    (fun ctx -> Apps.Quicksort.run ctx ~n:100_000 ~seed:42)

(* ------------------------------------------------------------------ *)

let off_means_null () =
  check_bool "no tracer installed" true (Trace.installed () = None);
  let cat = Trace.category "test-off" in
  check_bool "category reads disabled" false (Trace.enabled cat);
  let trk = Trace.track "t" in
  check_int "span runs its body" 7 (Trace.span cat ~name:"x" ~track:trk (fun () -> 7));
  Trace.complete cat ~name:"y" ~track:trk ~t0:Sim.Time.zero ();
  check_int "flow is 0 when off" 0 (Trace.flow ())

let zero_overhead () =
  (* The simulated outcome of a run must be bit-identical with tracing
     on and off: recording is pure bookkeeping in sim-time. *)
  let plain = quicksort_run () in
  let json = ref "" in
  let traced =
    quicksort_run
      ~observe:(fun ctx ->
        let t = Trace.create ~eng:ctx.H.eng () in
        Trace.install t)
      ()
  in
  (match Trace.installed () with
  | Some t -> json := Trace.to_json t
  | None -> Alcotest.fail "tracer vanished");
  Trace.uninstall ();
  check_i64 "elapsed unchanged under tracing" plain.H.elapsed traced.H.elapsed;
  Alcotest.(check (list (pair string int)))
    "counters unchanged under tracing"
    (Sim.Stats.counters plain.H.run_stats)
    (Sim.Stats.counters traced.H.run_stats);
  check_bool "and the trace is non-trivial" true
    (List.length (payload_events !json) > 100)

let ring_wrap () =
  let eng = Sim.Engine.create () in
  with_tracer ~capacity:4 eng (fun t ->
      let cat = Trace.category "test-ring" in
      let trk = Trace.track "ring" in
      for i = 1 to 10 do
        Trace.instant cat ~name:(Printf.sprintf "e%d" i) ~track:trk ()
      done;
      check_int "all recorded" 10 (Trace.recorded t);
      check_int "oldest dropped" 6 (Trace.dropped t);
      let names =
        List.filter_map (str_field "name") (payload_events (Trace.to_json t))
      in
      Alcotest.(check (list string))
        "ring keeps the newest events in order"
        [ "e7"; "e8"; "e9"; "e10" ] names)

let category_filter () =
  let eng = Sim.Engine.create () in
  let cat_a = Trace.category "test-keep" in
  let cat_b = Trace.category "test-drop" in
  let trk = Trace.track "filter" in
  with_tracer ~cats:[ "test-keep" ] eng (fun t ->
      check_bool "listed category on" true (Trace.enabled cat_a);
      check_bool "unlisted category off" false (Trace.enabled cat_b);
      Trace.instant cat_a ~name:"kept" ~track:trk ();
      Trace.instant cat_b ~name:"dropped" ~track:trk ();
      let names =
        List.filter_map (str_field "name") (payload_events (Trace.to_json t))
      in
      Alcotest.(check (list string)) "only the kept event" [ "kept" ] names);
  check_bool "uninstall resets the filter" false (Trace.enabled cat_a)

let nesting_and_flows () =
  let eng = Sim.Engine.create () in
  with_tracer eng (fun t ->
      let cat = Trace.category "test-nest" in
      let trk = Trace.track "nest" in
      let v =
        Trace.span cat ~name:"outer" ~track:trk (fun () ->
            Trace.span cat ~name:"inner" ~track:trk (fun () -> 7))
      in
      check_int "span returns its body's value" 7 v;
      (match Trace.span cat ~name:"raises" ~track:trk (fun () -> raise Exit) with
      | () -> Alcotest.fail "span must re-raise its body's exception"
      | exception Exit -> ());
      let f = Trace.flow () in
      check_bool "flow ids are nonzero when tracing" true (f <> 0);
      let t0 = Sim.Engine.now eng in
      Trace.complete cat ~name:"producer" ~track:trk ~t0 ~flow_out:f ();
      Trace.complete cat ~name:"consumer" ~track:trk ~t0 ~flow_in:f ();
      let evs = payload_events (Trace.to_json t) in
      (* Sync spans close inner-first: "inner" is emitted before
         "outer". A span whose body raises is still emitted. *)
      let xs =
        List.filter_map
          (fun e -> if str_field "ph" e = Some "X" then str_field "name" e else None)
          evs
      in
      Alcotest.(check (list string))
        "nested sync spans emit inner before outer"
        [ "inner"; "outer"; "raises"; "producer"; "consumer" ]
        xs;
      let phs = List.filter_map (str_field "ph") evs in
      check_bool "flow start emitted" true (List.mem "s" phs);
      check_bool "flow finish emitted" true (List.mem "f" phs))

let json_well_formed () =
  let json = ref "" in
  ignore
    (quicksort_run
       ~observe:(fun ctx ->
         let t = Trace.create ~eng:ctx.H.eng () in
         Trace.install t)
       ());
  (match Trace.installed () with
  | Some t -> json := Trace.to_json t
  | None -> Alcotest.fail "tracer vanished");
  Trace.uninstall ();
  let evs = parse_events !json in
  check_bool "has events" true (evs <> []);
  List.iter
    (fun e ->
      match (str_field "ph" e, str_field "name" e) with
      | Some _, Some _ -> ()
      | _ -> Alcotest.fail "event missing ph or name")
    evs;
  (* Every track referenced by an event has a thread_name metadata
     record. *)
  let named =
    List.filter_map
      (fun e ->
        if str_field "ph" e = Some "M" then
          match Json.member "tid" e with
          | Some (Json.Num n) -> Some (int_of_float n)
          | _ -> None
        else None)
      evs
  in
  List.iter
    (fun e ->
      if str_field "ph" e <> Some "M" then
        match Json.member "tid" e with
        | Some (Json.Num n) ->
            if not (List.mem (int_of_float n) named) then
              Alcotest.failf "event tid %d has no thread_name metadata"
                (int_of_float n)
        | _ -> Alcotest.fail "event missing tid")
    evs

let golden_determinism () =
  let capture () =
    let json = ref "" in
    ignore
      (quicksort_run
         ~observe:(fun ctx ->
           let t = Trace.create ~eng:ctx.H.eng () in
           Trace.install t)
         ());
    (match Trace.installed () with
    | Some t -> json := Trace.to_json t
    | None -> Alcotest.fail "tracer vanished");
    Trace.uninstall ();
    !json
  in
  let a = capture () in
  let b = capture () in
  check_bool "same seed, byte-identical trace" true (String.equal a b)

(* ------------------------------------------------------------------ *)
(* The JSON codec the exporter writes with *)

(* Every 7-bit string survives escape-then-parse, control bytes
   included: the writers' output is strict JSON whatever a name or
   message holds. *)
let json_escape_round_trip =
  QCheck.Test.make ~name:"json escape round-trips through parse" ~count:500
    (QCheck.string_gen (QCheck.Gen.map Char.chr (QCheck.Gen.int_range 0 0x7F)))
    (fun s ->
      match Json.parse ("\"" ^ Json.escape s ^ "\"") with
      | Ok (Json.Str s') -> String.equal s s'
      | Ok _ | Error _ -> false)

(* Attribution plumbing *)

let breakdown_sums () =
  (* Attribution components must tile each fault exactly: the sum of
     the four component means equals the measured mean fault latency. *)
  Trace.set_attribution true;
  Fun.protect
    ~finally:(fun () -> Trace.set_attribution false)
    (fun () ->
      let r = quicksort_run () in
      let rows = Trace.breakdown r.H.run_stats in
      check_int "all four components present" 4 (List.length rows);
      let sum =
        List.fold_left (fun acc row -> acc +. row.Trace.bd_mean) 0. rows
      in
      let h = Sim.Stats.histogram r.H.run_stats "fault_ns" in
      check_bool "components sum to the mean fault latency" true
        (Float.abs (sum -. Sim.Histogram.mean h)
        < 0.01 *. Sim.Histogram.mean h))

let suite =
  [
    quick "tracing off: null spans, zero cost, flow 0" off_means_null;
    quick "tracing does not move simulated results" zero_overhead;
    quick "ring wraps, keeping the newest events" ring_wrap;
    quick "category filter admits only listed categories" category_filter;
    quick "span nesting and flow links" nesting_and_flows;
    quick "exported JSON is well-formed Perfetto trace_event"
      json_well_formed;
    quick "golden trace determinism (same seed, same bytes)"
      golden_determinism;
    QCheck_alcotest.to_alcotest json_escape_round_trip;
    quick "attribution components sum to fault latency" breakdown_sums;
  ]
