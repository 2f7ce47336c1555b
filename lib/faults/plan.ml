type t = { spec : Spec.t; rng : Sim.Rng.t }

let make ~seed spec = { spec; rng = Sim.Rng.create seed }
let spec t = t.spec
let passthrough t = Spec.is_zero t.spec

(* Scripted shard events, in firing order. Sorting here (time, then
   shard id) makes the drill schedule independent of spec-token
   order, so "kill-shard=1@5ms,kill-shard=0@2ms" replays the same as
   the reverse spelling. *)
let drill_schedule evts =
  List.map (fun (id, at) -> (id, Sim.Time.ns at)) evts
  |> List.sort (fun (ia, ta) (ib, tb) ->
         match Int64.compare ta tb with 0 -> Int.compare ia ib | c -> c)

let kills t = drill_schedule t.spec.Spec.kills
let recovers t = drill_schedule t.spec.Spec.recovers
let timeout t = Sim.Time.ns t.spec.Spec.timeout_ns
let max_retries t = t.spec.Spec.max_retries

(* End of the stall window containing [time] (ns), or [min_int] if
   none. One-shot windows and the periodic schedule are both pure
   functions of [time]: no mutable per-window state, so replay is
   exact. Immediate ints and top-level recursion, so the check a wire
   draw makes per attempt allocates nothing. *)
let rec window_end time best = function
  | [] -> best
  | (ws, len) :: rest ->
      let we = ws + len in
      window_end time (if time >= ws && time < we && we > best then we else best) rest

let stall_end_ns t time =
  let s = t.spec in
  let best = window_end time min_int s.Spec.blackouts in
  let p = s.Spec.blackout_period_ns and len = s.Spec.blackout_len_ns in
  if p > 0 && time mod p < len then Int.max best (time - (time mod p) + len) else best

let stall_end_at t (time : Sim.Time.t) =
  let we = stall_end_ns t (Int64.to_int time) in
  if we > min_int then Some (Int64.of_int we) else None

(* Defer a completion out of any stall window it lands in. The
   response is served the instant the memory node comes back; a
   deferred completion can land in the next window, so iterate (the
   QP's retransmission timeout bounds how long anyone actually
   waits), at most [n] times. *)
let rec defer_through_stalls t completion n =
  let we = if n = 0 then min_int else stall_end_ns t completion in
  if we > min_int then defer_through_stalls t we (n - 1) else completion

type wire = {
  mutable w_completion : int;
  mutable w_error : bool;
  mutable w_duplicate : bool;
  mutable w_retransmitted : bool;
}

let wire_cell () =
  { w_completion = 0; w_error = false; w_duplicate = false; w_retransmitted = false }

let wire t ~completion w =
  let s = t.spec in
  (* Fixed draw order — error, nack, dup — regardless of outcome, so
     the RNG stream stays aligned across attempts. *)
  let error = Sim.Rng.float t.rng < s.Spec.error_rate in
  let nacked = Sim.Rng.float t.rng < s.Spec.nack_rate in
  let duplicate = Sim.Rng.float t.rng < s.Spec.duplicate_rate in
  let completion =
    Int64.to_int completion + if nacked then s.Spec.nack_delay_ns else 0
  in
  w.w_completion <- defer_through_stalls t completion 16;
  w.w_error <- error;
  w.w_duplicate <- duplicate;
  w.w_retransmitted <- nacked

let backoff t ~attempt =
  let s = t.spec in
  let shift = Int.min 16 (Int.max 0 (attempt - 1)) in
  let base = Int.min s.Spec.backoff_max_ns (s.Spec.backoff_ns * (1 lsl shift)) in
  (* Deterministic jitter from the plan RNG: up to half the base,
     decorrelating retries that would otherwise re-collide. *)
  let jitter = Sim.Rng.int t.rng (Int.max 1 (base / 2)) in
  Sim.Time.ns (base + jitter)
