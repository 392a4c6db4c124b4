(** What counts as a taint source and a taint sink.

    Sources are allocation sites: every non-null allocation inside a
    method whose simple name matches a source prefix (so a call
    [x = getSecret0()] marks the object the callee returns), plus any
    allocation on a line annotated [// @taint-source]. Sinks are
    caller-side positions: every reference-typed argument of a call to a
    method matching a sink prefix, plus — on lines annotated
    [// @taint-sink] — the arguments and the receiver of the call on
    that line. Annotation lines come from {!Frontend.annotations}, whose
    positions are user-source lines, the same coordinate system
    {!Ir.call_site.cs_pos} and {!Ir.alloc_site.alloc_pos} use.

    IR limitation, documented rather than papered over: [Load]/[Store]
    instructions carry no source position, so {e field} dereferences
    cannot be designated as sinks by line annotation — call positions
    (which carry [cs_pos]) can. *)

type t = {
  source_prefixes : string list;
  sink_prefixes : string list;
  source_lines : int list;  (** sorted *)
  sink_lines : int list;  (** sorted *)
}

val default : t
(** Prefixes [getSecret*] / [send*], no annotated lines. *)

val make :
  ?source_prefixes:string list ->
  ?sink_prefixes:string list ->
  ?source_lines:int list ->
  ?sink_lines:int list ->
  unit ->
  t

val of_source : ?base:t -> ?lang:Loc.lang -> string -> t
(** [base] (default {!default}) extended with the annotation lines
    scanned from the program text with the selected language's lexer
    ([lang] defaults to MiniJava). *)

val source_sites : t -> Ir.program -> int list
(** Allocation-site ids of all sources, in site order. *)

type sink = {
  sk_meth : int;  (** enclosing method id *)
  sk_var : int;  (** the variable whose points-to set decides the sink *)
  sk_line : int;  (** call line *)
  sk_desc : string;  (** e.g. ["arg 1 (s) of call to send"] *)
}

val sinks : t -> ?is_reachable:(int -> bool) -> Ir.program -> sink list
(** All sink positions in methods accepted by [is_reachable] (default:
    all), in method/instruction order. *)
