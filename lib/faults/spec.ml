type t = {
  error_rate : float;
  duplicate_rate : float;
  nack_rate : float;
  nack_delay_ns : int;
  timeout_ns : int;
  max_retries : int;
  backoff_ns : int;
  backoff_max_ns : int;
  blackouts : (int * int) list;
  blackout_period_ns : int;
  blackout_len_ns : int;
  kills : (int * int) list;
  recovers : (int * int) list;
}

let zero =
  {
    error_rate = 0.0;
    duplicate_rate = 0.0;
    nack_rate = 0.0;
    nack_delay_ns = 20_000;
    timeout_ns = 200_000;
    max_retries = 8;
    backoff_ns = 10_000;
    backoff_max_ns = 1_000_000;
    blackouts = [];
    blackout_period_ns = 0;
    blackout_len_ns = 0;
    kills = [];
    recovers = [];
  }

(* Kill/recover verbs deliberately do NOT count: they act on the
   memory node (replica routing), not the wire, so a kill-only spec
   leaves the QP's attempts free of wire draws and timeout timers. *)
let is_zero t =
  t.error_rate = 0.0 && t.duplicate_rate = 0.0 && t.nack_rate = 0.0
  && t.blackouts = [] && t.blackout_period_ns = 0

let has_drill t = t.kills <> [] || t.recovers <> []

(* Injected rates are clamped so that every attempt retains a real
   chance of success: campaigns must terminate — degraded, never
   wedged. *)
let max_rate = 0.9

let clamp_rate r = Float.min max_rate (Float.max 0.0 r)

let normalize t =
  {
    t with
    error_rate = clamp_rate t.error_rate;
    duplicate_rate = clamp_rate t.duplicate_rate;
    nack_rate = clamp_rate t.nack_rate;
    nack_delay_ns = Int.max 0 t.nack_delay_ns;
    timeout_ns = Int.max 1_000 t.timeout_ns;
    max_retries = Int.max 1 t.max_retries;
    backoff_ns = Int.max 100 t.backoff_ns;
    backoff_max_ns = Int.max t.backoff_ns t.backoff_max_ns;
  }

let flaky =
  {
    zero with
    error_rate = 0.02;
    nack_rate = 0.05;
    duplicate_rate = 0.01;
  }

let lossy =
  {
    zero with
    error_rate = 0.15;
    nack_rate = 0.15;
    duplicate_rate = 0.05;
    nack_delay_ns = 50_000;
  }

let blackout =
  { zero with blackout_period_ns = 10_000_000; blackout_len_ns = 1_000_000 }

let meltdown =
  {
    zero with
    error_rate = 0.3;
    nack_rate = 0.2;
    duplicate_rate = 0.1;
    blackout_period_ns = 8_000_000;
    blackout_len_ns = 2_000_000;
  }

let presets =
  [
    ("none", zero);
    ("flaky", flaky);
    ("lossy", lossy);
    ("blackout", blackout);
    ("meltdown", meltdown);
  ]

(* "2ms" / "500us" / "1s" / "7000" (bare ns). *)
let parse_duration_ns s =
  let num_mult =
    if String.length s >= 2 && String.sub s (String.length s - 2) 2 = "ns" then
      Some (String.sub s 0 (String.length s - 2), 1)
    else if String.length s >= 2 && String.sub s (String.length s - 2) 2 = "us"
    then Some (String.sub s 0 (String.length s - 2), 1_000)
    else if String.length s >= 2 && String.sub s (String.length s - 2) 2 = "ms"
    then Some (String.sub s 0 (String.length s - 2), 1_000_000)
    else if String.length s >= 1 && String.sub s (String.length s - 1) 1 = "s"
    then Some (String.sub s 0 (String.length s - 1), 1_000_000_000)
    else Some (s, 1)
  in
  match num_mult with
  | Some (num, mult) -> (
      match float_of_string_opt num with
      | Some f when f >= 0.0 -> Ok (int_of_float (f *. float_of_int mult))
      | Some _ -> Error (Printf.sprintf "negative duration %S" s)
      | None -> Error (Printf.sprintf "bad duration %S" s))
  | None -> Error (Printf.sprintf "bad duration %S" s)

let parse_rate s =
  match float_of_string_opt s with
  | Some f when f >= 0.0 && f <= 1.0 -> Ok f
  | Some _ -> Error (Printf.sprintf "rate %S outside [0, 1]" s)
  | None -> Error (Printf.sprintf "bad rate %S" s)

(* One comma-separated token: a preset name or [key=value]. The
   [blackout=LEN@START] key may repeat to stack one-shot windows. *)
let apply_token spec tok =
  match List.assoc_opt tok presets with
  | Some preset -> Ok preset
  | None -> (
      match String.index_opt tok '=' with
      | None -> Error (Printf.sprintf "unknown fault spec token %S" tok)
      | Some i -> (
          let key = String.sub tok 0 i in
          let v = String.sub tok (i + 1) (String.length tok - i - 1) in
          let rate f = Result.map f (parse_rate v) in
          let dur f = Result.map f (parse_duration_ns v) in
          match key with
          | "err" | "error" -> rate (fun r -> { spec with error_rate = r })
          | "dup" -> rate (fun r -> { spec with duplicate_rate = r })
          | "nack" -> rate (fun r -> { spec with nack_rate = r })
          | "nack-delay" -> dur (fun d -> { spec with nack_delay_ns = d })
          | "timeout" -> dur (fun d -> { spec with timeout_ns = d })
          | "retries" -> (
              match int_of_string_opt v with
              | Some n when n >= 1 -> Ok { spec with max_retries = n }
              | Some _ | None -> Error (Printf.sprintf "bad retries %S" v))
          | "backoff" -> dur (fun d -> { spec with backoff_ns = d })
          | "backoff-max" -> dur (fun d -> { spec with backoff_max_ns = d })
          | "blackout" -> (
              match String.index_opt v '@' with
              | None -> Error "blackout wants LEN@START (e.g. 2ms@5ms)"
              | Some j -> (
                  let len_s = String.sub v 0 j in
                  let start_s = String.sub v (j + 1) (String.length v - j - 1) in
                  match (parse_duration_ns len_s, parse_duration_ns start_s) with
                  | Ok len, Ok start ->
                      Ok { spec with blackouts = (start, len) :: spec.blackouts }
                  | Error m, _ | _, Error m -> Error m))
          | "blackout-every" ->
              dur (fun d -> { spec with blackout_period_ns = d })
          | "blackout-len" -> dur (fun d -> { spec with blackout_len_ns = d })
          | "kill-shard" | "recover-shard" -> (
              (* ID@T: shard index @ simulated instant. Repeatable, so
                 a drill can script several deaths and rebirths. *)
              match String.index_opt v '@' with
              | None ->
                  Error
                    (Printf.sprintf "%s wants ID@T (e.g. %s=0@5ms)" key key)
              | Some j -> (
                  let id_s = String.sub v 0 j in
                  let at_s = String.sub v (j + 1) (String.length v - j - 1) in
                  match (int_of_string_opt id_s, parse_duration_ns at_s) with
                  | Some id, Ok at when id >= 0 ->
                      if String.equal key "kill-shard" then
                        Ok { spec with kills = (id, at) :: spec.kills }
                      else Ok { spec with recovers = (id, at) :: spec.recovers }
                  | Some _, Ok _ ->
                      Error (Printf.sprintf "negative shard id %S" id_s)
                  | None, _ -> Error (Printf.sprintf "bad shard id %S" id_s)
                  | _, Error m -> Error m))
          | _ -> Error (Printf.sprintf "unknown fault spec key %S" key)))

let parse s =
  let s = String.trim s in
  if s = "" then Ok zero
  else begin
    let toks = String.split_on_char ',' s |> List.map String.trim in
    let rec go spec = function
      | [] -> Ok spec
      | tok :: rest -> (
          match apply_token spec tok with
          | Ok spec -> go spec rest
          | Error _ as e -> e)
    in
    match go zero toks with
    | Error _ as e -> e
    | Ok spec ->
        let spec =
          (* Periodic blackout defaults: naming either parameter turns
             the other on with a sane value. *)
          if spec.blackout_period_ns > 0 && spec.blackout_len_ns = 0 then
            { spec with blackout_len_ns = 1_000_000 }
          else if spec.blackout_len_ns > 0 && spec.blackout_period_ns = 0 then
            { spec with blackout_period_ns = 10 * spec.blackout_len_ns }
          else spec
        in
        if
          spec.blackout_period_ns > 0
          && spec.blackout_len_ns >= spec.blackout_period_ns
        then Error "blackout-len must be shorter than blackout-every"
        else Ok (normalize spec)
  end

let pp ppf t =
  if is_zero t && not (has_drill t) then Format.fprintf ppf "none"
  else begin
    Format.fprintf ppf
      "err=%.3g dup=%.3g nack=%.3g nack-delay=%dns timeout=%dns retries=%d \
       backoff=%d..%dns blackouts=%d periodic=%d/%dns"
      t.error_rate t.duplicate_rate t.nack_rate t.nack_delay_ns t.timeout_ns
      t.max_retries t.backoff_ns t.backoff_max_ns
      (List.length t.blackouts)
      t.blackout_len_ns t.blackout_period_ns;
    if has_drill t then
      Format.fprintf ppf " kills=%d recovers=%d" (List.length t.kills)
        (List.length t.recovers)
  end
