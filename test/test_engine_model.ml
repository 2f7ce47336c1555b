(* Engine ordering model. Random programs of fibers and callbacks run
   on [Sim.Engine] and on a naive reference scheduler that parks a fiber
   on every sleep and keeps every event in one sorted list (a lane post
   is a plain [at]); the firing trace (each event, the clock when it ran
   and the queue length it saw), the final clock and the queue length
   must agree. *)

open Util

(* The operations a program uses, on int nanoseconds. *)
module type ENGINE = sig
  type t
  type timer
  type lane

  val create : unit -> t
  val now : t -> int
  val at : t -> int -> (unit -> unit) -> unit
  val after : t -> int -> (unit -> unit) -> unit
  val timer_at : t -> int -> (unit -> unit) -> timer
  val cancel : timer -> unit
  val lane : t -> lane
  val lane_at : lane -> int -> (unit -> unit) -> unit
  val spawn : t -> (unit -> unit) -> unit
  val sleep : t -> int -> unit
  val sleep_until : t -> int -> unit
  val yield : t -> unit
  val suspend : t -> ((unit -> unit) -> unit) -> unit
  val run : t -> unit
  val pending : t -> int
end

module Real : ENGINE = struct
  module E = Sim.Engine

  type t = E.t
  type timer = E.timer
  type lane = E.lane

  let ns = Sim.Time.ns
  let create = E.create
  let now t = Int64.to_int (E.now t)
  let at t time fn = E.at t (ns time) fn
  let after t d fn = E.after t (ns d) fn
  let timer_at t time fn = E.timer_at t (ns time) fn
  let cancel = E.cancel
  let lane = E.lane
  let lane_at l time fn = E.lane_at l (ns time) fn
  let spawn t f = E.spawn t f
  let sleep t d = E.sleep t (ns d)
  let sleep_until t time = E.sleep_until t (ns time)
  let yield = E.yield
  let suspend = E.suspend
  let run = E.run
  let pending = E.pending
end

(* The documented semantics, written for clarity: future events in a
   list sorted by (time, seq), same-instant events in a FIFO queue,
   future events at [now] before the queue, and every blocking call
   parks the fiber. *)
module Reference : ENGINE = struct
  type t = {
    mutable now : int;
    mutable seq : int;
    mutable future : (int * int * (unit -> unit)) list;
    ready : (unit -> unit) Queue.t;
  }

  type timer = { mutable state : [ `Pending | `Fired | `Cancelled ] }
  type lane = t
  type _ Effect.t += Park : ((unit -> unit) -> unit) -> unit Effect.t

  let create () = { now = 0; seq = 0; future = []; ready = Queue.create () }
  let now t = t.now

  let insert t time seq fn =
    let rec go = function
      | ((tm, sq, _) as ev) :: rest when tm < time || (tm = time && sq < seq) ->
          ev :: go rest
      | l -> (time, seq, fn) :: l
    in
    t.future <- go t.future

  let at t time fn =
    if time < t.now then invalid_arg "Reference.at: past"
    else if time = t.now then Queue.push fn t.ready
    else begin
      t.seq <- t.seq + 1;
      insert t time t.seq fn
    end

  let after t d fn = at t (t.now + d) fn

  let timer_at t time fn =
    let tm = { state = `Pending } in
    at t time (fun () ->
        if tm.state = `Pending then begin
          tm.state <- `Fired;
          fn ()
        end);
    tm

  let cancel tm = if tm.state = `Pending then tm.state <- `Cancelled
  let lane t = t
  let lane_at = at

  let spawn t f =
    Queue.push
      (fun () ->
        Effect.Deep.match_with f ()
          {
            retc = (fun () -> ());
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Park register ->
                    Some
                      (fun (k : (a, unit) Effect.Deep.continuation) ->
                        register (fun () ->
                            Queue.push (fun () -> Effect.Deep.continue k ()) t.ready))
                | _ -> None);
          })
      t.ready

  let suspend _ register = Effect.perform (Park register)

  let sleep_until t time =
    if time > t.now then suspend t (fun wake -> at t time wake)

  let sleep t d = sleep_until t (t.now + d)
  let yield t = suspend t (fun wake -> at t t.now wake)

  let next_time t =
    match t.future with
    | (time, _, _) :: _ when time = t.now -> Some t.now
    | _ when not (Queue.is_empty t.ready) -> Some t.now
    | (time, _, _) :: _ -> Some time
    | [] -> None

  let step t =
    match t.future with
    | (time, _, fn) :: rest when time = t.now ->
        t.future <- rest;
        fn ()
    | _ when not (Queue.is_empty t.ready) -> (Queue.pop t.ready) ()
    | (time, _, fn) :: rest ->
        t.future <- rest;
        t.now <- time;
        fn ()
    | [] -> ()

  let run t =
    while next_time t <> None do
      step t
    done

  let pending t = List.length t.future + Queue.length t.ready
end

(* ------------------------------------------------------------------ *)
(* Programs *)

let channels = 3
let lanes = 2

type cb = { cid : int; body : cop list }

and cop =
  | At of int * cb
  | After of int * cb
  | Timer of int * cb * int option (* cancel after this delay; 0 = now *)
  | Lane of int * int * cb (* lane, delay *)
  | Spawn of fiber
  | Signal of int

and fiber = { fid : int; steps : fop list }

and fop =
  | Sleep of int
  | Sleep_until of int
  | Yield
  | Wait of int
  | Do of cop

type program = cop list

let rec pp_cop b = function
  | At (d, cb) -> Printf.bprintf b "at+%d %a" d pp_cb cb
  | After (d, cb) -> Printf.bprintf b "after %d %a" d pp_cb cb
  | Timer (d, cb, c) ->
      Printf.bprintf b "timer+%d%s %a" d
        (match c with None -> "" | Some c -> Printf.sprintf "/cancel+%d" c)
        pp_cb cb
  | Lane (l, d, cb) -> Printf.bprintf b "lane%d+%d %a" l d pp_cb cb
  | Spawn f -> pp_fiber b f
  | Signal c -> Printf.bprintf b "signal %d" c

and pp_cb b cb =
  Printf.bprintf b "c%d{" cb.cid;
  List.iter (fun op -> Printf.bprintf b "%a; " pp_cop op) cb.body;
  Printf.bprintf b "}"

and pp_fiber b f =
  Printf.bprintf b "f%d(" f.fid;
  List.iter
    (fun op ->
      (match op with
      | Sleep d -> Printf.bprintf b "sleep %d" d
      | Sleep_until t -> Printf.bprintf b "sleep_until %d" t
      | Yield -> Printf.bprintf b "yield"
      | Wait c -> Printf.bprintf b "wait %d" c
      | Do op -> pp_cop b op);
      Printf.bprintf b "; ")
    f.steps;
  Printf.bprintf b ")"

let print_program p =
  let b = Buffer.create 256 in
  List.iter (fun op -> Printf.bprintf b "%a\n" pp_cop op) p;
  Buffer.add_string b "run";
  Buffer.contents b

(* Programs of [ops] top-level operations. [top] generates a top-level
   one from [gen_cop] and the depth. *)
let gen_program_of ~delays ~ops ~top =
  let open QCheck.Gen in
  let ids = ref 0 in
  let fresh () =
    incr ids;
    !ids
  in
  let rec gen_cop depth =
    let leaf = map (fun c -> Signal c) (int_bound (channels - 1)) in
    if depth = 0 then leaf
    else
      frequency
        [
          (3, map2 (fun d cb -> At (d, cb)) delays (gen_cb (depth - 1)));
          (2, map2 (fun d cb -> After (d, cb)) delays (gen_cb (depth - 1)));
          ( 2,
            map3
              (fun d cb c -> Timer (d, cb, c))
              delays (gen_cb (depth - 1))
              (opt (int_range 0 5)) );
          ( 3,
            map3
              (fun l d cb -> Lane (l, d, cb))
              (int_bound (lanes - 1))
              delays (gen_cb (depth - 1)) );
          (3, map (fun f -> Spawn f) (gen_fiber (depth - 1)));
          (1, leaf);
        ]
  and gen_cb depth =
    map
      (fun body -> { cid = fresh (); body })
      (list_size (int_range 0 2) (gen_cop depth))
  and gen_fiber depth =
    let fop =
      frequency
        [
          (5, map (fun d -> Sleep d) (int_range 0 6));
          (2, map (fun t -> Sleep_until t) (int_range 0 30));
          (2, return Yield);
          (1, map (fun c -> Wait c) (int_bound (channels - 1)));
          (2, map (fun op -> Do op) (gen_cop depth));
        ]
    in
    map (fun steps -> { fid = fresh (); steps }) (list_size (int_range 1 8) fop)
  in
  list_size ops (top gen_cop gen_cb)

(* Small delays, so same-instant ties and exact-target collisions are
   common. *)
let gen_program =
  gen_program_of ~delays:(QCheck.Gen.int_range 0 4) ~ops:(QCheck.Gen.int_range 1 5)
    ~top:(fun gen_cop _ -> gen_cop 3)

(* More than 40 callbacks due strictly in the future before [run], each
   of which may schedule more: the event heap is full as it grows past
   32 entries, and popped events free closure slots for later pushes to
   reuse. Delays still collide often. *)
let wide_pending = 40

let gen_wide_program =
  let open QCheck.Gen in
  gen_program_of ~delays:(int_range 1 24)
    ~ops:(int_range (wide_pending + 1) (wide_pending + 20))
    ~top:(fun _ gen_cb ->
      frequency
        [
          (2, map2 (fun d cb -> At (d, cb)) (int_range 1 24) (gen_cb 2));
          (1, map2 (fun d cb -> After (d, cb)) (int_range 1 24) (gen_cb 2));
          ( 2,
            map3
              (fun l d cb -> Lane (l, d, cb))
              (int_bound (lanes - 1))
              (int_range 1 24) (gen_cb 2) );
        ])

(* Trace of one program on one engine. *)
module Exec (E : ENGINE) = struct
  let exec p =
    let e = E.create () in
    let log = ref [] in
    let note s = log := Printf.sprintf "%s@%d/%d" s (E.now e) (E.pending e) :: !log in
    let waiters = Array.make channels [] in
    let ls = Array.init lanes (fun _ -> E.lane e) in
    let rec cop = function
      | At (d, cb) -> E.at e (E.now e + d) (fun () -> fire cb)
      | After (d, cb) -> E.after e d (fun () -> fire cb)
      | Timer (d, cb, cancel) -> (
          let tm = E.timer_at e (E.now e + d) (fun () -> fire cb) in
          match cancel with
          | None -> ()
          | Some 0 -> E.cancel tm
          | Some c -> E.after e c (fun () -> E.cancel tm))
      | Lane (l, d, cb) -> E.lane_at ls.(l) (E.now e + d) (fun () -> fire cb)
      | Spawn f -> E.spawn e (fun () -> fiber f)
      | Signal c ->
          let ws = List.rev waiters.(c) in
          waiters.(c) <- [];
          List.iter (fun wake -> wake ()) ws
    and fire cb =
      note (Printf.sprintf "c%d" cb.cid);
      List.iter cop cb.body
    and fiber f =
      note (Printf.sprintf "f%d" f.fid);
      List.iteri
        (fun i op ->
          (match op with
          | Sleep d -> E.sleep e d
          | Sleep_until t -> E.sleep_until e t
          | Yield -> E.yield e
          | Wait c -> E.suspend e (fun wake -> waiters.(c) <- wake :: waiters.(c))
          | Do op -> cop op);
          note (Printf.sprintf "f%d.%d" f.fid i))
        f.steps
    in
    List.iter cop p;
    let pending = E.pending e in
    E.run e;
    note (Printf.sprintf "end pending=%d" (E.pending e));
    (pending, List.rev !log)
end

module Exec_real = Exec (Real)
module Exec_ref = Exec (Reference)

let matches_reference ?(min_pending = 0) p =
  let pending, real = Exec_real.exec p and _, reference = Exec_ref.exec p in
  if pending < min_pending then
    QCheck.Test.fail_reportf "only %d events pending before run" pending
  else if real = reference then true
  else
    QCheck.Test.fail_reportf "engine:    %s\nreference: %s"
      (String.concat " " real)
      (String.concat " " reference)

let engine_matches_reference =
  QCheck.Test.make ~name:"engine trace equals the always-park reference"
    ~count:1000
    (QCheck.make gen_program ~print:print_program)
    (fun p -> matches_reference p)

let engine_matches_reference_wide =
  QCheck.Test.make ~name:"engine trace equals the reference with a wide heap"
    ~count:200
    (QCheck.make gen_wide_program ~print:print_program)
    (matches_reference ~min_pending:(wide_pending + 1))

(* ------------------------------------------------------------------ *)
(* The in-place advance's edges *)

let heap_event_at_target_fires_first () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng (Sim.Time.us 10) (fun () -> log := "callback" :: !log);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.sleep_until eng (Sim.Time.us 10);
      log := "sleeper" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "callback first" [ "callback"; "sleeper" ] (List.rev !log)

let sleep_in_callback_still_fails () =
  let eng = Sim.Engine.create () in
  Sim.Engine.at eng (Sim.Time.us 5) (fun () -> Sim.Engine.sleep eng (Sim.Time.us 1));
  match Sim.Engine.run eng with
  | () -> Alcotest.fail "sleep outside a fiber must not return"
  | exception Effect.Unhandled _ ->
      check_i64 "clock stays at the callback" (Sim.Time.us 5) (Sim.Engine.now eng)

let suite =
  [
    QCheck_alcotest.to_alcotest engine_matches_reference;
    QCheck_alcotest.to_alcotest engine_matches_reference_wide;
    quick "heap event at the target fires first" heap_event_at_target_fires_first;
    quick "sleep in a callback still fails" sleep_in_callback_still_fails;
  ]
