(* Deterministic health monitors. See health.mli for the model. *)

type severity = Info | Warn | Crit

let severity_name = function Info -> "info" | Warn -> "warn" | Crit -> "crit"

type event = {
  he_t : Sim.Time.t;
  he_rule : string;
  he_severity : severity;
  he_subject : string;
  he_value : int;
  he_threshold : int;
  he_detail : string;
}

type view = {
  v_now : Sim.Time.t;
  v_delta : string -> int;
  v_deltas : (string * int) list;
  v_total : string -> int;
  v_gauge : string -> (string * int) list;
}

type firing = {
  f_subject : string;
  f_value : int;
  f_threshold : int;
  f_detail : string;
}

type rule = { r_id : string; r_severity : severity; r_eval : view -> firing list }

let rule ~id ~severity eval = { r_id = id; r_severity = severity; r_eval = eval }

(* ------------------------------------------------------------------ *)
(* Built-in rules *)

let retry_storm () =
  let threshold = 5 in
  rule ~id:"retry-storm" ~severity:Warn (fun v ->
      let d = v.v_delta "rdma_retries" in
      if d >= threshold then
        [
          {
            f_subject = "";
            f_value = d;
            f_threshold = threshold;
            f_detail = "rdma_retries delta over one interval";
          };
        ]
      else [])

let resync_backlog () =
  rule ~id:"resync-backlog" ~severity:Warn (fun v ->
      List.filter_map
        (fun (subject, backlog) ->
          if backlog > 0 then
            Some
              {
                f_subject = subject;
                f_value = backlog;
                f_threshold = 1;
                f_detail = "shard below replication target; pages awaiting resync";
              }
          else None)
        (v.v_gauge "repl_resync_backlog_pages"))

let tombstone_serving () =
  rule ~id:"tombstone-serving" ~severity:Crit (fun v ->
      let lost = v.v_total "repl_lost_pages" in
      if lost > 0 then
        [
          {
            f_subject = "";
            f_value = lost;
            f_threshold = 1;
            f_detail = "group tombstoned pages; reads will raise Page_lost";
          };
        ]
      else [])

let queue_depth v =
  List.fold_left (fun acc (_, d) -> acc + d) 0 (v.v_gauge "serve_queue_depth")

let worker_starvation () =
  let min_queue = 1 in
  rule ~id:"worker-starvation" ~severity:Crit (fun v ->
      let q = queue_depth v in
      if q >= min_queue && v.v_delta "serve_completed" = 0 then
        [
          {
            f_subject = "";
            f_value = q;
            f_threshold = min_queue;
            f_detail = "requests queued but zero completions for a full interval";
          };
        ]
      else [])

let queue_ceiling () =
  let threshold = 64 in
  rule ~id:"queue-depth-ceiling" ~severity:Warn (fun v ->
      let q = queue_depth v in
      if q >= threshold then
        [
          {
            f_subject = "";
            f_value = q;
            f_threshold = threshold;
            f_detail = "arrival rate outrunning service capacity";
          };
        ]
      else [])

let defaults () =
  [
    retry_storm ();
    resync_backlog ();
    tombstone_serving ();
    worker_starvation ();
    queue_ceiling ();
  ]

(* ------------------------------------------------------------------ *)
(* Monitor *)

let cat_health = Dilos_trace.category "health"
let track_health = lazy (Dilos_trace.track "health")

type t = {
  eng : Sim.Engine.t;
  stats : Sim.Stats.t;
  registry : Registry.t option;
  interval : Sim.Time.t;
  rules : rule list;
  mutable prev : Sim.Stats.snapshot;
  mutable active : (string * string) list;  (* (rule, subject) true last tick *)
  mutable events : event list;  (* newest first *)
  mutable ticks : int;
  mutable running : bool;
}

let rec arm m = Sim.Engine.after m.eng m.interval (fun () -> tick m)

and tick m =
  if m.running then begin
    let cur = Sim.Stats.snapshot m.stats in
    let deltas = Sim.Stats.diff ~base:m.prev cur in
    let lookup xs n =
      match List.assoc_opt n xs with Some v -> v | None -> 0
    in
    let view =
      {
        v_now = Sim.Engine.now m.eng;
        v_delta = lookup deltas;
        v_deltas = deltas;
        v_total = lookup cur;
        v_gauge =
          (match m.registry with
          | Some r -> Registry.gauge_series r
          | None -> fun _ -> []);
      }
    in
    let now_active = ref [] in
    List.iter
      (fun r ->
        List.iter
          (fun f ->
            let key = (r.r_id, f.f_subject) in
            now_active := key :: !now_active;
            if not (List.mem key m.active) then begin
              m.events <-
                {
                  he_t = view.v_now;
                  he_rule = r.r_id;
                  he_severity = r.r_severity;
                  he_subject = f.f_subject;
                  he_value = f.f_value;
                  he_threshold = f.f_threshold;
                  he_detail = f.f_detail;
                }
                :: m.events;
              Dilos_trace.instant cat_health ~name:r.r_id
                ~track:(Lazy.force track_health)
                ~args:
                  [
                    ("subject", Dilos_trace.S f.f_subject);
                    ("value", Dilos_trace.I f.f_value);
                    ("threshold", Dilos_trace.I f.f_threshold);
                  ]
                ()
            end)
          (r.r_eval view))
      m.rules;
    m.active <- !now_active;
    m.prev <- cur;
    m.ticks <- m.ticks + 1;
    (* Re-arm only while the simulation still has other work, so the
       monitor never keeps Engine.run alive spinning an idle clock. *)
    if Sim.Engine.pending m.eng > 0 then arm m
  end

let start ~eng ~stats ?registry ~interval ?rules () =
  if Sim.Time.compare interval (Sim.Time.ns 1) < 0 then
    invalid_arg "Health.start: interval < 1ns";
  let rules = match rules with Some r -> r | None -> defaults () in
  let m =
    {
      eng;
      stats;
      registry;
      interval;
      rules;
      prev = Sim.Stats.snapshot stats;
      active = [];
      events = [];
      ticks = 0;
      running = true;
    }
  in
  arm m;
  m

let stop m = m.running <- false
let events m = List.rev m.events
let ticks m = m.ticks
