type counter = int ref

type t = {
  counters : (string, counter) Hashtbl.t;
  histos : (string, Histogram.t) Hashtbl.t;
  mutable sorted : (string * counter) list;
      (* [counters]' cells, name-sorted; [] until first read after a
         name joins. Names join at boot, reads happen per health tick,
         so the sort runs a handful of times per run. *)
}

let create () =
  { counters = Hashtbl.create 32; histos = Hashtbl.create 8; sorted = [] }

let cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      t.sorted <- [];
      r

(* Resolve the name once (boot time), bump an int ref per event. *)
let counter = cell
let cincr (c : counter) = incr c
let cadd (c : counter) n = c := !c + n
let cget (c : counter) = !c

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let histogram t name =
  match Hashtbl.find_opt t.histos name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.histos name h;
      h

let sorted_cells t =
  (match t.sorted with
  | [] ->
      t.sorted <-
        Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.counters []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  | _ :: _ -> ());
  t.sorted

let counters t = List.map (fun (k, r) -> (k, !r)) (sorted_cells t)

(* Reporting view of the histogram table, name-sorted like [counters]
   so dumps are deterministically ordered. *)
let histograms t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.histos []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Zero in place rather than dropping the tables: handles resolved
   before a reset must keep pointing at the live cells.
   Suppression justified: zeroing is per-cell and commutative — no
   output can observe the bucket order the reset walked. *)
let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.iter (fun _ h -> Histogram.reset h) t.histos
[@@lint.allow "hashtbl-order"]

(* Snapshots: an immutable, name-sorted copy of the counter table.
   A health monitor takes one per tick and diffs consecutive pairs into
   per-interval rates. *)
type snapshot = (string * int) list

let snapshot = counters

(* One merge pass: both snapshots are sorted by [String.compare], so
   walking them in step finds each of [cur]'s names in [base] (or
   passes the point where it would be) in linear time. Names only ever
   join the table, so [base]'s extras are the rare case; they are
   skipped. *)
let diff ~base cur =
  let rec go base cur =
    match (base, cur) with
    | _, [] -> []
    | [], (name, v) :: cur -> (name, v) :: go [] cur
    | (bname, b) :: base', (name, v) :: cur' ->
        let c = String.compare bname name in
        if c = 0 then (name, v - b) :: go base' cur'
        else if c < 0 then go base' cur
        else (name, v) :: go base cur'
  in
  go base cur

let histogram_opt t name = Hashtbl.find_opt t.histos name

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %d@." k v) (counters t);
  List.iter
    (fun (k, h) ->
      if Histogram.count h > 0 then
        Format.fprintf ppf "%-32s n=%d mean=%.0f p50=%d p99=%d@." k
          (Histogram.count h) (Histogram.mean h) (Histogram.quantile h 0.5)
          (Histogram.quantile h 0.99))
    (histograms t)
