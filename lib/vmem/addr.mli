(** Virtual address arithmetic. 4 KiB pages, 48-bit canonical VAs. *)

val page_size : int
val page_shift : int

val vpn : int64 -> int
(** Virtual page number of an address. *)

val base : int -> int64
(** Base address of a virtual page number. *)

val offset : int64 -> int
(** Offset within the page. *)

val is_page_aligned : int64 -> bool
val round_up : int64 -> int64
(** Round up to the next page boundary. *)

val pages_spanned : int64 -> int -> int
(** [pages_spanned addr len] is the number of pages the byte range
    [addr, addr+len) touches (0 if [len = 0]). *)
