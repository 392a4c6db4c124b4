(** Lightweight instrumentation: named counters and wall-clock timers.

    The benchmark harness reports both wall-clock time (machine-dependent)
    and deterministic step counters (machine-independent), because the
    paper's claims are ratios and the ratios of step counts are reproducible
    bit-for-bit. *)

type t

val create : unit -> t

val bump : t -> string -> unit
(** Increment a named counter by one. *)

val add : t -> string -> int -> unit

val cell : t -> string -> int ref
(** The counter's storage, created at 0 on first use; adding to it is
    [add] without the name lookup. Hot emitters fetch it once. *)

val get : t -> string -> int
(** Current value, 0 if never touched. *)

val merge_into : into:t -> t -> unit
(** Add every counter of the argument into [into]. The parallel batch
    scheduler accumulates per-domain; a [t] itself is single-domain state
    and must never be bumped from two domains concurrently. *)

val to_list : t -> (string * int) list
(** Sorted by name. *)

val pp : Format.formatter -> t -> unit

(** {2 Timers} *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with elapsed seconds. *)

