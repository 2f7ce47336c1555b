(** The project's one JSON codec: a string escaper for the writers
    (trace export, run reports, lint findings, bench results) and a
    minimal reader for the consumers that parse those files back
    ([--trace-validate], the trajectory gate, tests). No dependencies,
    so every library and executable can use it. *)

val escape : string -> string
(** The body of a JSON string literal (without the quotes): ['"'] and
    ['\\'] are backslash-escaped, newline, tab and carriage return get
    their short escapes, every other byte below 0x20 becomes
    [\u00XX]. Bytes from 0x20 up pass through unchanged. *)

(** {1 Reader}

    Just enough JSON to parse the project's own output back. Strict
    where the writers must be (a raw byte below 0x20 inside a string is
    an error), but not a general-purpose parser: a [\uXXXX] escape
    above 0x7F decodes to ['?']. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

val parse : string -> (v, string) result
(** The one value [s] holds, or an error naming the byte offset. *)

val member : string -> v -> v option
(** [member key v] is field [key] of object [v]; [None] for a missing
    field or a non-object. *)
