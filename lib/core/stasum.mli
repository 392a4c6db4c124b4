(** STASUM — the static whole-program summarisation baseline (Yan et al.,
    ISSTA'11) the paper compares DYNSUM against in Table 2 and Figure 5.

    The offline phase enumerates {e every} summary a demand query could
    ever request: it seeds a PPTA at [(v, ε, S1)] for every variable and
    global with at least one incident edge, then closes the set under
    global-edge expansion — each frontier tuple of a computed summary
    spawns the summary keys its worklist successors would request,
    context-insensitively (STASUM cannot know which contexts queries will
    use, so it must cover all boundary states). This is why it computes
    far more summaries than DYNSUM ever materialises on demand, which is
    precisely the paper's Figure 5 measurement.

    Queries then run {!Kernel.solve} over the precomputed cache. With an
    uncapped offline phase the cache is total and demand queries never
    compute a summary; if the safety cap (or the field-depth bound)
    truncates the offline phase, missing keys are computed lazily and
    counted in ["summary_misses"]. *)

type t

val create : ?conf:Conf.t -> ?trace:Trace.sink -> ?max_summaries:int -> Pag.t -> t
(** Runs the offline phase eagerly. [max_summaries] (default 300,000) is a
    safety cap; hitting it truncates enumeration. *)

val points_to : t -> ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> Query.outcome
(** [satisfy] early-exits in the refutation direction only, exactly as
    {!Dynsum.points_to} (the worklist under-approximates until done). *)

val summary_count : t -> int
(** Summaries computed offline (Figure 5's denominator). *)

val summary_points : t -> int
(** Distinct (node, direction) pairs covered (see {!Dynsum.summary_points}). *)

val truncated : t -> bool

val invalidate : t -> Pag.node list -> int * int
(** Drop the offline/backfilled summaries whose derivation footprint
    (each summary's own {!Ppta.summary} [fp]) meets an edit burst's dirty
    nodes (the {!Footprint.stale} cut); dropped keys are recomputed
    lazily by the online phase on next use. Returns
    [(dropped, retained)]. *)

val budget : t -> Budget.t

val stats : t -> Pts_util.Stats.t
(** Counters: ["queries"], ["exceeded"], ["summary_hits"] and
    ["summary_misses"] (online table lookups). *)
