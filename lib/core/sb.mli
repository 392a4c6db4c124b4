(** The Sridharan–Bodík demand-driven points-to analysis (Algorithms 1 and
    2 of the paper), in both variants the paper evaluates:

    - {b NOREFINE}: fully field-sensitive from the start, no refinement —
      the paper's unoptimised baseline. On the shared kernel this is the
      exact local-edge policy, i.e. precisely DYNSUM's traversal without a
      cross-query summary cache.
    - {b REFINEPTS}: starts field-based (heap accesses connected by
      "match" edges that also clear the context and field stack),
      iteratively refines the load edges recorded in [fldsSeen] until the
      client is satisfied or the answer is exact, and memoises local walks
      within each refinement pass (the paper's "ad hoc caching").

    Both are context-sensitive for method invocation (call-site stacks,
    RRP) and heap abstraction (targets carry heap contexts). Both run
    {!Kernel.solve} over a per-pass {!Kernel.policy}. *)

type mode = No_refine | Refine

type t

val create : ?conf:Conf.t -> ?trace:Trace.sink -> mode -> Pag.t -> t

val points_to : t -> ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> Query.outcome
(** Demand query with the empty initial context. With [satisfy] (REFINEPTS
    only) the refinement loop returns as soon as the predicate holds — the
    returned set may then still be an over-approximation, which is sound
    for clients asking "does the exact answer satisfy me?" with
    anti-monotone predicates. Without [satisfy], the result is the exact
    CFL answer (or [Exceeded]). *)

val budget : t -> Budget.t
val mode : t -> mode

val stats : t -> Pts_util.Stats.t
(** Counters: ["queries"], ["exceeded"], ["passes"] (refinement passes),
    ["summary_hits"] / ["summary_misses"] (the within-pass walk memo),
    ["match_edges"] (field-based edges recorded for refinement). *)
