(* Labeled metric registry. See registry.mli for the model.

   Storage is plain lists: registration happens at boot (a few dozen
   families, a few series each), reporting happens once at the end of
   a run or, for one gauge family at a time, per health tick, and the
   hot path never touches the table — it holds a resolved cell. Lists
   keep the implementation free of Hashtbl iteration-order hazards by
   construction; every reporting view sorts explicitly anyway. *)

type mtype = Counter | Gauge | Histogram

type cell =
  | Cint of int ref
  | Cprobe of (unit -> int)
  | Chist of Sim.Histogram.t

type entry = {
  e_labels : (string * string) list;  (* sorted by label name *)
  e_rendered : string Lazy.t;
      (* [label_string e_labels], rendered on the first health tick
         that reads it — not at boot, where most series are counters
         nobody renders this way *)
  e_cell : cell;
}

type fam = {
  fam_name : string;
  fam_help : string;
  fam_type : mtype;
  mutable fam_series : entry list;
}

type t = { mutable fams : fam list }

let create () = { fams = [] }
let current : t option ref = ref None
let install t = current := Some t
let uninstall () = current := None
let installed () = !current

(* ------------------------------------------------------------------ *)
(* Label plumbing *)

let sort_labels ls =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) ls

let compare_labels a b =
  List.compare
    (fun (ka, va) (kb, vb) ->
      match String.compare ka kb with 0 -> String.compare va vb | c -> c)
    a b

let label_string ls =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) ls)

(* ------------------------------------------------------------------ *)
(* Resolution *)

let type_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let find_fam t name = List.find_opt (fun f -> String.equal f.fam_name name) t.fams

let resolve t ~name ~help ~labels ~mtype ~(make : unit -> cell) : cell =
  let labels = sort_labels labels in
  let f =
    match find_fam t name with
    | Some f ->
        if f.fam_type <> mtype then
          invalid_arg
            (Printf.sprintf "Obs.Registry: %s registered as %s, used as %s"
               name (type_name f.fam_type) (type_name mtype));
        f
    | None ->
        let f =
          { fam_name = name; fam_help = help; fam_type = mtype; fam_series = [] }
        in
        t.fams <- f :: t.fams;
        f
  in
  match List.find_opt (fun e -> compare_labels e.e_labels labels = 0) f.fam_series with
  | Some e -> e.e_cell
  | None ->
      let c = make () in
      let e =
        { e_labels = labels; e_rendered = lazy (label_string labels); e_cell = c }
      in
      f.fam_series <- e :: f.fam_series;
      c

(* Shared sinks for the not-installed case: handles resolved with no
   registry installed update these and the hot path stays branch-free.
   One sink per shape is enough — nobody ever reads them. *)
let sink_int = ref 0
let sink_hist = Sim.Histogram.create ()

type counter = int ref
type gauge = int ref

let int_cell = function
  | Cint r -> r
  | Cprobe _ | Chist _ -> invalid_arg "Obs.Registry: series backed by probe"

let counter ~name ?(help = "") ?(labels = []) () : counter =
  match !current with
  | None -> sink_int
  | Some t ->
      int_cell
        (resolve t ~name ~help ~labels ~mtype:Counter ~make:(fun () ->
             Cint (ref 0)))

let cincr (c : counter) = incr c
let cadd (c : counter) n = c := !c + n
let cget (c : counter) = !c

let gauge ~name ?(help = "") ?(labels = []) () : gauge =
  match !current with
  | None -> sink_int
  | Some t ->
      int_cell
        (resolve t ~name ~help ~labels ~mtype:Gauge ~make:(fun () ->
             Cint (ref 0)))

let gset (g : gauge) v = g := v
let gget (g : gauge) = !g

let probe ~name ?(help = "") ?(labels = []) f =
  match !current with
  | None -> ()
  | Some t ->
      ignore
        (resolve t ~name ~help ~labels ~mtype:Gauge ~make:(fun () -> Cprobe f))

let histogram ~name ?(help = "") ?(labels = []) () =
  match !current with
  | None -> sink_hist
  | Some t -> (
      match
        resolve t ~name ~help ~labels ~mtype:Histogram ~make:(fun () ->
            Chist (Sim.Histogram.create ()))
      with
      | Chist h -> h
      | Cint _ | Cprobe _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Reporting views *)

type value = V of int | H of Sim.Histogram.t

type series = { s_labels : (string * string) list; s_value : unit -> value }

type family = {
  f_name : string;
  f_help : string;
  f_type : mtype;
  f_series : series list;
}

let cell_value = function
  | Cint r -> V !r
  | Cprobe p -> V (p ())
  | Chist h -> H h

let sorted_series f =
  List.sort (fun a b -> compare_labels a.e_labels b.e_labels) f.fam_series

(* Every family holds at least the series whose resolution created it. *)
let families t =
  List.map
    (fun f ->
      {
        f_name = f.fam_name;
        f_help = f.fam_help;
        f_type = f.fam_type;
        f_series =
          List.map
            (fun e ->
              { s_labels = e.e_labels; s_value = (fun () -> cell_value e.e_cell) })
            (sorted_series f);
      })
    (List.sort (fun a b -> String.compare a.fam_name b.fam_name) t.fams)

let gauge_series t name =
  match find_fam t name with
  | Some f when f.fam_type = Gauge ->
      List.map
        (fun e ->
          ( Lazy.force e.e_rendered,
            match cell_value e.e_cell with V v -> v | H _ -> 0 ))
        (sorted_series f)
  | Some _ | None -> []
