(** SUPA: demand-driven flow-sensitive points-to with strong updates via
    value-flow refinement (after Sui & Xue, "On-Demand Strong Update
    Analysis via Value-Flow Refinement").

    Answers in two stages. Stage one is the exact CFL kernel solve
    (NOREFINE's machine verbatim) — the flow-insensitive baseline. Stage
    two builds a query-local sparse value-flow graph from the lowered IR
    of the query variable's method — def-use chains walked backwards in
    body order, derived through {!Pag.View} metadata so edit overlays
    degrade it safely — and intersects the baseline with the allocation
    sites that survive flow-sensitive reasoning. A store kills older
    writes (a {e strong update}) only when its base is a syntactic
    must-alias of one allocation executed exactly once per invocation
    {e and} the Andersen oracle admits the base as a singleton
    non-summary object ({!Pag.oracle_singleton}); ambiguous stores are
    weak updates, refined where possible by recursive points-to
    sub-queries through the shared kernel on a private budget. Every
    channel the walk cannot model (parameters, globals, call returns,
    loops, overlay-dirty nodes or fields) degrades to Top — the baseline
    — so the answer is a subset of NOREFINE's by construction. *)

type t

val create : ?conf:Conf.t -> ?trace:Trace.sink -> Pag.t -> t

val points_to : t -> ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> Query.outcome
(** Demand query with the empty initial context. With [satisfy], the
    refinement stage is skipped as soon as the baseline satisfies the
    predicate — sound for anti-monotone client predicates, as in
    {!Sb.points_to}. Refinement sub-queries run on private budgets, so
    an outcome that is [Resolved] without refinement is never turned
    into [Exceeded] by it. *)

val budget : t -> Budget.t

val stats : t -> Pts_util.Stats.t
(** Counters: ["queries"], ["exceeded"], ["passes"] (1 = baseline,
    2 = refinement), ["summary_hits"] / ["summary_misses"] (within-query
    walk memo),
    ["vfg_nodes"] (value-flow nodes visited), ["strong_updates"],
    ["weak_updates"], ["refinement_subqueries"] (kernel sub-queries
    issued to refute store aliasing). *)
