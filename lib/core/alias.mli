(** Demand alias queries on top of the points-to engines.

    In the CFL formulation, [x alias y] iff some abstract object flows to
    both ([x flowsTo-bar o flowsTo y], §3.2): two variables may alias
    exactly when their points-to sets share a target. Heap contexts
    participate in the comparison — two allocations of the same site under
    provably different calling contexts do not alias — with a
    site-granularity fallback for clients that want the conservative
    answer. *)

type verdict =
  | Must_not  (** target sets are disjoint: never aliases *)
  | May  (** sets intersect: possible alias *)
  | Unknown  (** a budget ran out *)

val may_alias : Pag.t -> Engine.engine -> Pag.node -> Pag.node -> verdict
(** Full-precision comparison on (site, heap-context) targets. When the
    PAG carries an Andersen oracle (see {!Pag.set_oracle}), disjoint rows
    answer [Must_not] without issuing any query — the definite-negative
    fast path; without one every pair goes to the engine. *)

val may_alias_sites : Pag.t -> Engine.engine -> Pag.node -> Pag.node -> verdict
(** Coarser comparison on allocation sites only (ignores heap contexts);
    never more precise than {!may_alias}, useful as a sanity oracle.
    Same oracle fast path. *)

val overlap : Query.Target_set.t -> Query.Target_set.t -> bool
