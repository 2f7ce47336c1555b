(* JSON fragments for the structured run-report. See report.mli. *)

let str b s =
  Buffer.add_char b '"';
  Buffer.add_string b (Json.escape s);
  Buffer.add_char b '"'

let histo_obj b h =
  Buffer.add_string b
    (Printf.sprintf
       "{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%d,\"p99\":%d,\"p999\":%d}"
       (Sim.Histogram.count h) (Sim.Histogram.sum h)
       (Sim.Histogram.min_value h) (Sim.Histogram.max_value h)
       (Sim.Histogram.quantile h 0.5)
       (Sim.Histogram.quantile h 0.99)
       (Sim.Histogram.quantile h 0.999))

let metrics b reg =
  Buffer.add_char b '[';
  List.iteri
    (fun i (f : Registry.family) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      str b f.Registry.f_name;
      Buffer.add_string b ",\"type\":";
      str b
        (match f.Registry.f_type with
        | Registry.Counter -> "counter"
        | Registry.Gauge -> "gauge"
        | Registry.Histogram -> "histogram");
      if not (String.equal f.Registry.f_help "") then begin
        Buffer.add_string b ",\"help\":";
        str b f.Registry.f_help
      end;
      Buffer.add_string b ",\"series\":[";
      List.iteri
        (fun j (s : Registry.series) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b "{\"labels\":{";
          List.iteri
            (fun k (lk, lv) ->
              if k > 0 then Buffer.add_char b ',';
              str b lk;
              Buffer.add_char b ':';
              str b lv)
            s.Registry.s_labels;
          Buffer.add_char b '}';
          (match s.Registry.s_value () with
          | Registry.V v -> Buffer.add_string b (Printf.sprintf ",\"value\":%d" v)
          | Registry.H h ->
              Buffer.add_string b ",\"histogram\":";
              histo_obj b h);
          Buffer.add_char b '}')
        f.Registry.f_series;
      Buffer.add_string b "]}")
    (Registry.families reg);
  Buffer.add_char b ']'

let stats_counters b st =
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      str b name;
      Buffer.add_string b (Printf.sprintf ":%d" v))
    (Sim.Stats.counters st);
  Buffer.add_char b '}'

let stats_histograms b st =
  Buffer.add_char b '{';
  let first = ref true in
  List.iter
    (fun (name, h) ->
      if Sim.Histogram.count h > 0 then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        str b name;
        Buffer.add_char b ':';
        histo_obj b h
      end)
    (Sim.Stats.histograms st);
  Buffer.add_char b '}'

let health b evs =
  Buffer.add_char b '[';
  List.iteri
    (fun i (e : Health.event) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"t_ns\":%Ld,\"rule\":" e.Health.he_t);
      str b e.Health.he_rule;
      Buffer.add_string b ",\"severity\":";
      str b (Health.severity_name e.Health.he_severity);
      Buffer.add_string b ",\"subject\":";
      str b e.Health.he_subject;
      Buffer.add_string b
        (Printf.sprintf ",\"value\":%d,\"threshold\":%d,\"detail\":"
           e.Health.he_value e.Health.he_threshold);
      str b e.Health.he_detail;
      Buffer.add_char b '}')
    evs;
  Buffer.add_char b ']'

let profile b p =
  Buffer.add_string b "{\"totals\":{";
  List.iteri
    (fun i (root, v) ->
      if i > 0 then Buffer.add_char b ',';
      str b root;
      Buffer.add_string b (Printf.sprintf ":%d" v))
    (Profile.totals p);
  Buffer.add_string b "},\"stacks\":[";
  let lines =
    String.split_on_char '\n' (Profile.folded p)
    |> List.filter (fun l -> not (String.equal l ""))
  in
  List.iteri
    (fun i line ->
      if i > 0 then Buffer.add_char b ',';
      match String.rindex_opt line ' ' with
      | Some sp ->
          Buffer.add_string b "{\"stack\":";
          str b (String.sub line 0 sp);
          Buffer.add_string b
            (Printf.sprintf ",\"ns\":%s}"
               (String.sub line (sp + 1) (String.length line - sp - 1)))
      | None -> ())
    lines;
  Buffer.add_string b "]}"
