(* Deterministic tracing for the paging data path.

   Every timestamp comes from the simulated clock (Sim.Engine.now), so
   a trace is a pure function of the run's seed and configuration: the
   same run produces byte-identical trace files. Recording never
   touches the engine — no sleeps, no scheduled events, no RNG draws —
   so enabling tracing cannot move a single simulated result (the
   golden suites hold with tracing on or off).

   Hot-path discipline mirrors Sim.Stats: categories and tracks are
   resolved to handles once (at module init / boot), and the per-event
   guard is a single mutable-bool load ([enabled]). With no tracer
   installed every category reads [false] and instrumented code pays
   one branch. *)

(* ------------------------------------------------------------------ *)
(* Categories *)

type cat = { c_name : string; mutable c_on : bool }

(* Few, created at module-init time: a list is enough and keeps
   enumeration order deterministic (registration order). *)
let cats : cat list ref = ref []

(* Filter of the currently installed tracer, applied to categories that
   register after installation. *)
let active_filter : string list option option ref = ref None

let filter_allows filter name =
  match filter with
  | None -> false (* no tracer installed *)
  | Some None -> true (* tracer, no category filter *)
  | Some (Some names) -> List.exists (String.equal name) names

let category name =
  match List.find_opt (fun c -> String.equal c.c_name name) !cats with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_on = filter_allows !active_filter name } in
      cats := c :: !cats;
      c

let enabled c = c.c_on

(* ------------------------------------------------------------------ *)
(* Tracks (Perfetto "threads": one timeline row per track) *)

let tracks : (string * int) list ref = ref []

let track name =
  match List.find_opt (fun (n, _) -> String.equal n name) !tracks with
  | Some (_, id) -> id
  | None ->
      let id = List.length !tracks in
      tracks := (name, id) :: !tracks;
      id

let track_name id =
  match List.find_opt (fun (_, i) -> i = id) !tracks with
  | Some (n, _) -> n
  | None -> Printf.sprintf "track%d" id

(* ------------------------------------------------------------------ *)
(* Events *)

type arg = I of int | S of string

type kind = Sync | Async | Instant

type event = {
  ev_id : int;
  ev_kind : kind;
  ev_cat : string;
  ev_name : string;
  ev_track : int;
  ev_t0 : Sim.Time.t;
  ev_t1 : Sim.Time.t;
  ev_args : (string * arg) list;
  ev_flow_in : int; (* 0 = none *)
  ev_flow_out : int;
}

let dummy_event =
  {
    ev_id = 0;
    ev_kind = Instant;
    ev_cat = "";
    ev_name = "";
    ev_track = 0;
    ev_t0 = Sim.Time.zero;
    ev_t1 = Sim.Time.zero;
    ev_args = [];
    ev_flow_in = 0;
    ev_flow_out = 0;
  }

type t = {
  eng : Sim.Engine.t;
  filter : string list option;
  cap : int;
  buf : event array; (* bounded ring: oldest events are overwritten *)
  mutable head : int; (* index of oldest event *)
  mutable len : int;
  mutable total : int; (* events ever recorded (>= len) *)
  mutable next_id : int;
  mutable next_flow : int;
}

let create ~eng ?(capacity = 1 lsl 16) ?cats () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  {
    eng;
    filter = cats;
    cap = capacity;
    buf = Array.make capacity dummy_event;
    head = 0;
    len = 0;
    total = 0;
    next_id = 0;
    next_flow = 0;
  }

let current : t option ref = ref None

let apply_filter filter =
  List.iter (fun c -> c.c_on <- filter_allows filter c.c_name) !cats

let install t =
  current := Some t;
  active_filter := Some t.filter;
  apply_filter (Some t.filter)

let uninstall () =
  current := None;
  active_filter := None;
  apply_filter None

let installed () = !current

let push t ev =
  if t.len = t.cap then begin
    (* Full: overwrite the oldest slot. *)
    t.buf.(t.head) <- ev;
    t.head <- (t.head + 1) mod t.cap
  end
  else begin
    t.buf.((t.head + t.len) mod t.cap) <- ev;
    t.len <- t.len + 1
  end;
  t.total <- t.total + 1

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let flow () =
  match !current with
  | None -> 0
  | Some t ->
      t.next_flow <- t.next_flow + 1;
      t.next_flow

let events t =
  List.init t.len (fun i -> t.buf.((t.head + i) mod t.cap))

let recorded t = t.total
let dropped t = t.total - t.len

(* Read-only event view for consumers outside this module (the
   Observatory profiler folds spans into collapsed stacks). Track ids
   are resolved to names here so the consumer never sees the interning
   tables. *)
type event_view = {
  vw_kind : kind;
  vw_cat : string;
  vw_name : string;
  vw_track : string;
  vw_t0 : Sim.Time.t;
  vw_t1 : Sim.Time.t;
}

let iter_events t f =
  for i = 0 to t.len - 1 do
    let ev = t.buf.((t.head + i) mod t.cap) in
    f
      {
        vw_kind = ev.ev_kind;
        vw_cat = ev.ev_cat;
        vw_name = ev.ev_name;
        vw_track = track_name ev.ev_track;
        vw_t0 = ev.ev_t0;
        vw_t1 = ev.ev_t1;
      }
  done

(* ------------------------------------------------------------------ *)
(* Span / instant API *)

(* Retrospective emission: record an already-closed span with explicit
   start (and optionally end) times. The natural shape for completion
   callbacks — begin/end bookkeeping across async hops is replaced by
   "we know when it started, it just finished". *)
let complete cat ~name ~track ~t0 ?t1 ?(async = false) ?(flow_in = 0)
    ?(flow_out = 0) ?(args = []) () =
  if cat.c_on then
    match !current with
    | None -> ()
    | Some t ->
        push t
          {
            ev_id = fresh_id t;
            ev_kind = (if async then Async else Sync);
            ev_cat = cat.c_name;
            ev_name = name;
            ev_track = track;
            ev_t0 = t0;
            ev_t1 = (match t1 with Some x -> x | None -> Sim.Engine.now t.eng);
            ev_args = args;
            ev_flow_in = flow_in;
            ev_flow_out = flow_out;
          }

(* Scoped form: the interval from entry to exit of [f], emitted at exit
   (also when [f] raises) exactly as [complete] emits it. *)
let span cat ~name ~track ?async ?flow_in ?args f =
  match !current with
  | Some t when cat.c_on ->
      let t0 = Sim.Engine.now t.eng in
      Fun.protect
        ~finally:(fun () -> complete cat ~name ~track ~t0 ?async ?flow_in ?args ())
        f
  | Some _ | None -> f ()

let instant cat ~name ~track ?(args = []) () =
  if cat.c_on then
    match !current with
    | None -> ()
    | Some t ->
        let now = Sim.Engine.now t.eng in
        push t
          {
            ev_id = fresh_id t;
            ev_kind = Instant;
            ev_cat = cat.c_name;
            ev_name = name;
            ev_track = track;
            ev_t0 = now;
            ev_t1 = now;
            ev_args = args;
            ev_flow_in = 0;
            ev_flow_out = 0;
          }

(* ------------------------------------------------------------------ *)
(* Chrome / Perfetto trace_event JSON export *)

(* Timestamps are microseconds in trace_event JSON; print ns-exact
   fixed-point instead of going through floats. *)
let ts_us ns =
  Printf.sprintf "%Ld.%03Ld" (Int64.div ns 1000L) (Int64.rem ns 1000L)

let add_args b args =
  Buffer.add_string b "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (Json.escape k));
      match v with
      | I n -> Buffer.add_string b (string_of_int n)
      | S s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (Json.escape s)))
    args;
  Buffer.add_char b '}'

let add_event_json b ev =
  let head ph ts =
    Buffer.add_string b
      (Printf.sprintf "{\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%s"
         ph ev.ev_track (Json.escape ev.ev_name) (Json.escape ev.ev_cat)
         (ts_us ts))
  in
  let sep () = Buffer.add_string b ",\n" in
  (match ev.ev_kind with
  | Sync ->
      head "X" ev.ev_t0;
      Buffer.add_string b
        (Printf.sprintf ",\"dur\":%s," (ts_us (Sim.Time.sub ev.ev_t1 ev.ev_t0)));
      add_args b ev.ev_args;
      Buffer.add_char b '}'
  | Async ->
      head "b" ev.ev_t0;
      Buffer.add_string b (Printf.sprintf ",\"id\":%d," ev.ev_id);
      add_args b ev.ev_args;
      Buffer.add_char b '}';
      sep ();
      head "e" ev.ev_t1;
      Buffer.add_string b (Printf.sprintf ",\"id\":%d}" ev.ev_id)
  | Instant ->
      head "i" ev.ev_t0;
      Buffer.add_string b ",\"s\":\"t\",";
      add_args b ev.ev_args;
      Buffer.add_char b '}');
  (* Flow links: an "s" (flow start) anchored at the producing span's
     end, an "f" (flow finish, binding to the enclosing slice) at the
     consuming span's start. *)
  if ev.ev_flow_out <> 0 then begin
    sep ();
    Buffer.add_string b
      (Printf.sprintf
         "{\"ph\":\"s\",\"pid\":1,\"tid\":%d,\"name\":\"flow\",\"cat\":\"%s\",\"id\":%d,\"ts\":%s}"
         ev.ev_track (Json.escape ev.ev_cat) ev.ev_flow_out (ts_us ev.ev_t1))
  end;
  if ev.ev_flow_in <> 0 then begin
    sep ();
    Buffer.add_string b
      (Printf.sprintf
         "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":%d,\"name\":\"flow\",\"cat\":\"%s\",\"id\":%d,\"ts\":%s}"
         ev.ev_track (Json.escape ev.ev_cat) ev.ev_flow_in (ts_us ev.ev_t0))
  end

let to_json t =
  let evs = events t in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  (* Thread-name metadata for every track referenced by the buffer,
     sorted by id for deterministic bytes. *)
  let track_ids =
    List.sort_uniq Int.compare (List.map (fun e -> e.ev_track) evs)
  in
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  List.iter
    (fun id ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
           id
           (Json.escape (track_name id))))
    track_ids;
  List.iter
    (fun ev ->
      sep ();
      add_event_json b ev)
    evs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_json t file =
  let oc = open_out file in
  output_string oc (to_json t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Latency attribution *)

let attribution_on = ref false
let set_attribution v = attribution_on := v
let attribution () = !attribution_on

type fetch_attrib = {
  mutable fa_queue_ns : int;
  mutable fa_wire_ns : int;
  mutable fa_backoff_ns : int;
  mutable fa_attempts : int;
}

let fetch_attrib () =
  { fa_queue_ns = 0; fa_wire_ns = 0; fa_backoff_ns = 0; fa_attempts = 0 }

let attr_kernel = "attr_kernel_ns"
let attr_queue = "attr_queue_ns"
let attr_wire = "attr_wire_ns"
let attr_backoff = "attr_backoff_ns"

let attr_components =
  [
    ("kernel", attr_kernel);
    ("queueing", attr_queue);
    ("wire", attr_wire);
    ("backoff", attr_backoff);
  ]

module Attr = struct
  type a = {
    h_kernel : Sim.Histogram.t;
    h_queue : Sim.Histogram.t;
    h_wire : Sim.Histogram.t;
    h_backoff : Sim.Histogram.t;
  }

  type t = a

  let create stats =
    if not !attribution_on then None
    else
      Some
        {
          h_kernel = Sim.Stats.histogram stats attr_kernel;
          h_queue = Sim.Stats.histogram stats attr_queue;
          h_wire = Sim.Stats.histogram stats attr_wire;
          h_backoff = Sim.Stats.histogram stats attr_backoff;
        }

  (* Fold one closed fault into the four component histograms. The
     RDMA-side components come from the fetch's [fetch_attrib]; the
     remainder of the fault is kernel software time (PTE walk, frame
     alloc, mapping, plus any fetch-window software work that outlived
     the wire). By construction the components of one fault sum to
     exactly [total_ns]. *)
  let record a ~total_ns ~(fetch : fetch_attrib) =
    let rdma = fetch.fa_queue_ns + fetch.fa_wire_ns + fetch.fa_backoff_ns in
    Sim.Histogram.add a.h_kernel (Int.max 0 (total_ns - rdma));
    Sim.Histogram.add a.h_queue fetch.fa_queue_ns;
    Sim.Histogram.add a.h_wire fetch.fa_wire_ns;
    Sim.Histogram.add a.h_backoff fetch.fa_backoff_ns
end

type breakdown_row = {
  bd_label : string;
  bd_count : int;
  bd_mean : float;
  bd_p50 : int;
  bd_p99 : int;
}

let breakdown_of_histo label h =
  {
    bd_label = label;
    bd_count = Sim.Histogram.count h;
    bd_mean = Sim.Histogram.mean h;
    bd_p50 = Sim.Histogram.quantile h 0.5;
    bd_p99 = Sim.Histogram.quantile h 0.99;
  }

let breakdown stats =
  List.filter_map
    (fun (label, name) ->
      match Sim.Stats.histogram_opt stats name with
      | Some h when Sim.Histogram.count h > 0 ->
          Some (breakdown_of_histo label h)
      | Some _ | None -> None)
    attr_components
