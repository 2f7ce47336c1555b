(* Sim-time profiler. See profile.mli for the folding rules. *)

type t = { cells : (string, int ref) Hashtbl.t }

let create () = { cells = Hashtbl.create 64 }

let add t ~stack v =
  if v <> 0 then
    match Hashtbl.find_opt t.cells stack with
    | Some r -> r := !r + v
    | None -> Hashtbl.add t.cells stack (ref v)

(* ------------------------------------------------------------------ *)
(* Span folding *)

type span = { sp_name : string; sp_t0 : int; sp_t1 : int }

let ns (t : Sim.Time.t) = Int64.to_int t

(* Fold one track's sync spans by interval containment: sort by
   (start asc, duration desc) so a parent precedes the children it
   encloses, then sweep with an explicit stack. Each frame records its
   full duration and subtracts it from its parent's bucket, leaving
   every bucket with self time — the tiling invariant. *)
let fold_track t track spans =
  let spans =
    List.sort
      (fun a b ->
        match Int.compare a.sp_t0 b.sp_t0 with
        | 0 -> Int.compare (b.sp_t1 - b.sp_t0) (a.sp_t1 - a.sp_t0)
        | c -> c)
      spans
  in
  (* stack: (path, t1) list, innermost first *)
  let stack = ref [] in
  List.iter
    (fun sp ->
      let rec unwind () =
        match !stack with
        | (_, t1) :: rest when t1 <= sp.sp_t0 ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      let parent = match !stack with [] -> track | (p, _) :: _ -> p in
      let path = parent ^ ";" ^ sp.sp_name in
      let dur = sp.sp_t1 - sp.sp_t0 in
      add t ~stack:path dur;
      (* Self-time discipline: the child's duration comes out of the
         enclosing frame (or the track root for top-level spans). *)
      add t ~stack:parent (-dur);
      stack := (path, sp.sp_t1) :: !stack)
    spans

let add_trace t tr =
  let tracks : (string, span list ref) Hashtbl.t = Hashtbl.create 8 in
  Dilos_trace.iter_events tr (fun ev ->
      match ev.Dilos_trace.vw_kind with
      | Dilos_trace.Instant -> ()
      | Dilos_trace.Async ->
          add t
            ~stack:(ev.Dilos_trace.vw_track ^ ";" ^ ev.Dilos_trace.vw_name)
            (ns ev.Dilos_trace.vw_t1 - ns ev.Dilos_trace.vw_t0)
      | Dilos_trace.Sync -> (
          let sp =
            {
              sp_name = ev.Dilos_trace.vw_name;
              sp_t0 = ns ev.Dilos_trace.vw_t0;
              sp_t1 = ns ev.Dilos_trace.vw_t1;
            }
          in
          match Hashtbl.find_opt tracks ev.Dilos_trace.vw_track with
          | Some r -> r := sp :: !r
          | None -> Hashtbl.add tracks ev.Dilos_trace.vw_track (ref [ sp ])));
  (* Deterministic fold order. The accumulation is per-stack-string and
     commutative, but sorted iteration keeps this function's behavior
     independent of Hashtbl state on principle. *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tracks []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (track, spans) -> fold_track t track (List.rev !spans))

(* ------------------------------------------------------------------ *)
(* Synthetic attribution stacks *)

let add_attribution t stats =
  List.iter
    (fun (frame, histo_name) ->
      match Sim.Stats.histogram_opt stats histo_name with
      | Some h when Sim.Histogram.count h > 0 ->
          add t ~stack:("fault;" ^ frame) (Sim.Histogram.sum h)
      | _ -> ())
    Dilos_trace.attr_components

(* ------------------------------------------------------------------ *)
(* Output *)

let lines t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.cells []
  |> List.filter (fun (_, v) -> v > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let folded t =
  let b = Buffer.create 4096 in
  List.iter
    (fun (stack, v) -> Buffer.add_string b (Printf.sprintf "%s %d\n" stack v))
    (lines t);
  Buffer.contents b

let root_of stack =
  match String.index_opt stack ';' with
  | Some i -> String.sub stack 0 i
  | None -> stack

let totals t =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (stack, v) ->
      let r = root_of stack in
      match Hashtbl.find_opt acc r with
      | Some x -> x := !x + v
      | None -> Hashtbl.add acc r (ref v))
    (lines t);
  Hashtbl.fold (fun k r l -> (k, !r) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let write t file =
  let oc = open_out file in
  output_string oc (folded t);
  close_out oc
