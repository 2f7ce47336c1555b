(** Named counters and histograms for a simulation run.

    Components increment shared counters ("major_faults",
    "bytes_fetched", ...) and record latency samples into named
    histograms; the experiment harness reads them back at the end of
    the run.

    Writes go through handles only: resolve a name once ([counter] /
    [histogram], e.g. at boot), then update through the handle
    ([cincr], [cadd], [Histogram.add]) with no hashing per event. The
    read side ([get], [counters], [snapshot], ...) looks names up and
    serves reporting. *)

type t

val create : unit -> t

(** {2 Writing} *)

type counter
(** A pre-resolved counter cell. Stays valid across {!reset} (reset
    zeroes cells in place). *)

val counter : t -> string -> counter
(** [counter t name] resolves (creating if needed) the named cell. *)

val cincr : counter -> unit
val cadd : counter -> int -> unit
val cget : counter -> int

val histogram : t -> string -> Histogram.t
(** The named histogram, created on first use: resolve once, then
    record via [Histogram.add]. *)

(** {2 Reading} *)

val get : t -> string -> int
(** Missing counters read as 0. *)

val counters : t -> (string * int) list
(** All counters, sorted by name with [String.compare] — a pure byte
    comparison, so the order is identical on every OCaml version and
    platform. The OpenMetrics exporter and the health monitors consume
    this view and rely on it being byte-stable: two runs with the same
    seed must serialize their counters in the same order. *)

val histograms : t -> (string * Histogram.t) list
(** All histograms, sorted by name — like {!counters}, the reporting
    view is deterministically ordered. *)

type snapshot = (string * int) list
(** An immutable, name-sorted copy of the counter table at one instant.
    Same ordering guarantee as {!counters}: [String.compare] on names,
    byte-stable across OCaml versions (never [Hashtbl] iteration
    order). *)

val snapshot : t -> snapshot
(** Linear in the number of counters: the name order is computed once
    per newly registered name, not per snapshot. *)

val diff : base:snapshot -> snapshot -> (string * int) list
(** [diff ~base cur] is the per-counter delta [cur - base], one entry
    per counter of [cur] (counters absent from [base] read as 0
    there), in [cur]'s (sorted) order. One merge pass over the two
    name-sorted lists: linear in their lengths. Feed consecutive
    snapshots to get per-interval rates. Counters are monotonic during a run, so
    with [base] taken before [cur] every delta is [>= 0]. *)

val histogram_opt : t -> string -> Histogram.t option
(** Like {!histogram} but without creating the histogram when absent —
    for reporting passes that must not mutate the stats they read. *)

val reset : t -> unit
(** Zero every counter and histogram in place; handles stay valid.
    Names stay registered (they subsequently read as 0). *)

val pp : Format.formatter -> t -> unit
(** Counters (name-sorted), then non-empty histograms as
    [n/mean/p50/p99] lines. *)
