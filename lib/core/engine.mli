(** The uniform engine interface and the engine registry.

    Every demand analysis in the system is exposed as an {!type:engine}
    record, and every consumer — [bin/ptsto], the client pipeline, the
    bench harness — selects engines by name from the one {!registry}
    table instead of pattern-matching constructors. *)

val conf :
  ?budget_limit:int -> ?max_field_repeat:int -> ?max_field_depth:int -> unit -> Conf.t
(** A configuration: {!Conf.default} with the given fields replaced. *)

(** {2 The common engine interface} *)

type points_to_fn = ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> Query.outcome
(** [satisfy] is the client's early-termination predicate (anti-monotone).
    REFINEPTS stops refining as soon as the — possibly still
    over-approximate — answer satisfies it; DYNSUM and STASUM stop their
    worklist as soon as the — still under-approximate — answer {e
    refutes} it (see {!Dynsum.points_to} for why that is the sound
    direction). Either way client verdicts are engine-independent. *)

type engine = {
  name : string;
  points_to : points_to_fn;
  budget : Budget.t;
  stats : Pts_util.Stats.t;
  summary_count : unit -> int; (** cached summaries (0 for non-summary engines) *)
  invalidate : Pag.node list -> int * int;
      (** After a {!Pag.apply_edits} burst, drop cached summaries whose
          derivation footprint intersects the commit's dirty nodes;
          returns [(dropped, retained)]. [(0, 0)] for engines without a
          cross-query cache — their graph-derived state (the field-based
          index) re-solves itself on the next query via the PAG epoch. *)
}

(** {2 Wrapping a concrete engine} *)

val sb : ?name:string -> Sb.t -> engine
val dynsum : Dynsum.t -> engine
val stasum : Stasum.t -> engine
val supa : Supa.t -> engine

(** {2 The registry} *)

type builder = ?conf:Conf.t -> ?trace:Trace.sink -> Pag.t -> engine

type spec = { spec_name : string; spec_doc : string; build : builder }

val registry : spec list
(** [norefine], [refinepts], [dynsum], [stasum] in the paper's
    presentation order — which the pipeline and benches rely on —
    followed by [supa], the flow-sensitive strong-update engine. *)

val names : unit -> string list
val find : string -> spec option

val create : ?conf:Conf.t -> ?trace:Trace.sink -> string -> Pag.t -> engine
(** Build an engine by registry name.
    @raise Invalid_argument on an unknown name. *)
