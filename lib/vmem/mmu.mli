(** Hardware MMU model: translation plus accessed/dirty bookkeeping.

    A successful translation sets the PTE accessed bit (and dirty bit
    on stores) exactly like the hardware walker; kernels rely on these
    bits (DiLOS's hit tracker scans accessed bits, its cleaner scans
    dirty bits). Anything other than a [Local] PTE is reported as a
    fault for the kernel to resolve — the hardware exception cost is
    charged by the kernel, not here. *)

type result =
  | Frame of int  (** translation hit; frame number *)
  | Fault of Pte.t  (** current entry (remote / fetching / action / unmapped) *)

val access : Page_table.t -> vpn:int -> write:bool -> result
(** Translate a page access, updating A/D bits on success. *)

val probe : Page_table.t -> vpn:int -> Pte.t
(** Read the entry without touching A/D bits (kernel-side inspection,
    not a hardware access). *)

val exception_cost : Sim.Time.t
(** Hardware exception delivery + mode switch into the fault handler:
    0.57 us (paper §3.1, "hardware exception delay + OS exception
    handler ... 9% (0.57 us)"). *)

val exception_ns : int
(** {!exception_cost} in nanoseconds. *)
