(** The diagnostic record every checker reports through: a located,
    severity-ranked finding that carries its own witness trace (rendered
    from {!Pts_core.Witness}) so each report says {e why}, not just
    {e that} — the property a demand-driven analysis is uniquely placed
    to provide, since the CFL traversal that refutes a query is itself
    the explanation. *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string
val severity_of_string : string -> severity option

val severity_geq : severity -> severity -> bool
(** [severity_geq a b] — is [a] at least as severe as [b]? Drives the
    [ptsto check --fail-on] exit-code gate. *)

type t = {
  d_checker : string;  (** checker name, e.g. ["taint"] *)
  d_severity : severity;
  d_method : string;  (** pretty name of the enclosing method *)
  d_line : int;  (** user-source line; 0 when the IR carries no position *)
  d_message : string;
  d_witness : string list;
      (** rendered {!Pts_core.Witness} trace; [[]] when no witness applies
          (cheap lints, budget-exceeded findings) *)
}

val compare : t -> t -> int
(** Total order: checker, method, line, message, severity, witness.
    Independent of evaluation order, engine and job count — report
    byte-identity across those axes depends on it. *)

val to_json : t -> Trace.Json.t
(** Fixed field order: checker, severity, method, line, message, witness. *)

val location : t -> string
(** ["Meth.name:line"], or just the method when the line is unknown. *)

val pp : Format.formatter -> t -> unit
(** One table row (severity, checker, location, message); the witness is
    not included. *)
