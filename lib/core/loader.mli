(** ELF-loader analogue: binary compatibility and guide hooks (§5).

    DiLOS loads unmodified application binaries and patches their
    symbol tables so that [malloc]/[free] resolve to the DDC variants.
    In the simulation there is no ELF image, so the loader keeps the
    patch table explicitly — applications look symbols up through
    {!resolve} the way the dynamic linker would — and provides the
    hooking interface guides use to observe application state (e.g.
    the Redis prefetch guide hooks list-traversal entry points to
    learn the current node's address). *)

type t

val create : unit -> t
(** Comes with the default patches installed: [malloc], [free],
    [calloc], [realloc], [posix_memalign] → their [ddc_] versions. *)

val resolve : t -> string -> string
(** Where a symbol actually points after patching (identity for
    unpatched symbols). *)

val patched : t -> (string * string) list

val register_hook : t -> string -> (int64 -> unit) -> unit
(** Attach a guide callback to a named application hook point. *)

val fire_hook : t -> string -> int64 -> unit
(** Invoked by (instrumented) application code; calls every registered
    callback with the argument, oldest first. No-op when nothing is
    registered — unhooked applications run unchanged. *)
