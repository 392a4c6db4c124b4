(** Multicore batch-query evaluation over a frozen, CSR-packed PAG.

    A batch of points-to queries is distributed across [jobs] worker
    domains. Every domain builds its {e own} engine instance from the
    {!Engine} registry against the one shared (frozen, hence immutable)
    {!Pag.t} — engines are single-domain state; the graph, the task
    deques and the summary base tier are the only things the domains
    share.

    {b Scheduling.} One {!Wsdeque} per domain. Each round's queries are
    split into [jobs] contiguous blocks in arrival order, and each owner
    pops its block in index order, so one domain answers exactly as a
    sequential loop would. A domain that runs dry steals from the
    fullest peer (the tail of its block), so wall-clock tracks total
    work instead of the worst shard. Each query is answered {e exactly once} by {e some}
    single-domain engine, so the verdicts are those of a sequential run:
    scheduling moves work, never changes it (pinned by the cross-jobs
    set-equality tests). Order does not change how much DYNSUM work a
    batch does either, only which domain derives a summary first: PPTA
    summaries are context-independent (see DESIGN.md).

    {b Summary reuse.} For DYNSUM, summaries computed in round [k] are
    published to later rounds through a shared read-only base tier
    ({!Dynsum.base}): after all workers of a round join, their structural
    {!Dynsum.snapshot}s are merged into the base, which round [k+1]'s
    engines consult by reference on cache miss — no more re-absorbing
    (and re-counting) the whole pool into every domain. Merging cannot
    change answers: a PPTA summary is context-independent, so a summary
    computed under one domain's query mix is valid under any other's
    (see DESIGN.md, "Parallel batch evaluation and the packed PAG").

    {b Export on demand.} Snapshotting, sorting and merging a round only
    pays off if something reads the result, so a round is published
    (snapshotted inside its workers, merged into the base) only when a
    later round follows it or the caller passed its own [?base]. The last
    round of a call with the internal tier is not published. With several
    domains it is still snapshotted inside the workers, because their
    pools overlap and {!field-unique_summaries} forces the union anyway;
    with one domain — the whole of a one-shot check — it is not
    snapshotted at all unless a caller forces {!field-summaries}.

    Hash-consed stacks never cross domains raw: snapshots carry symbol
    lists, and worker outcomes are {!Pts_util.Hstack.rebase}d into the
    main domain's store before they land in {!type:result}. *)

type query = { node : Pag.node; satisfy : (Query.Target_set.t -> bool) option }

val query : ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> query

type domain_report = {
  dr_round : int;
  dr_domain : int;
  dr_queries : int;  (** queries this domain answered in this round *)
  dr_steps : int;  (** its engine's cumulative edge traversals *)
  dr_seconds : float;  (** wall-clock inside the worker, excluding spawn/join *)
  dr_summaries : int;
      (** summaries this domain {e computed itself} this round (base-tier
          hits excluded); for non-DYNSUM engines, its engine's table size *)
  dr_steals : int;  (** tasks this domain lifted from peers *)
}

type result = {
  outcomes : Query.outcome array;
      (** one per input query, same order; context stacks are interned in
          the calling domain's store and safe to compare against
          sequential results *)
  reports : domain_report list;  (** per (round, domain), in order *)
  stats : Pts_util.Stats.t;
      (** all workers' counters, merged; plus ["steals"] when any occurred *)
  wall_seconds : float;  (** whole batch, including spawn/join/merge *)
  jobs : int;
  rounds : int;
  steals : int;  (** total successful steals across all rounds *)
  actual_steps : int array;  (** kernel steps each query actually charged, input order *)
  merged_summaries : int;
      (** total DYNSUM summaries {e derived} across all domains and
          rounds (0 for other engines); minus {!field-unique_summaries}
          this is the cross-domain recomputation the base tier exists to
          kill *)
  unique_summaries : int;
      (** distinct summary keys in the final pool; equals
          {!field-merged_summaries} without building the pool when a single
          engine derived every summary, otherwise read off the forced pool *)
  summaries : Dynsum.snapshot Lazy.t;
      (** the final merged pool — every round's summaries, exported or
          not — built only when forced; absorb into a fresh engine to
          persist. Force it on the calling domain: a round that was not
          snapshotted is snapshotted from its (joined) worker engine then.
          Until forced, the summary tables of such an engine stay
          reachable from this field — drop the result, or force it, to
          release them *)
  base_hits : int;
      (** base-tier lookup hits; for a caller-supplied [?base] these are
          its {e lifetime} tallies (delta across the call is the caller's
          to take), for the internal tier they are per-run *)
  base_misses : int;
  base_evictions : int;
  base_size : int;
      (** resident entries when the run finished; for the internal tier,
          only what was published to later rounds (0 for one round) *)
}

val run :
  ?conf:Conf.t ->
  ?trace_writer:Trace.writer ->
  ?jobs:int ->
  ?rounds:int ->
  ?base:Dynsum.base ->
  engine:string ->
  Pag.t ->
  query array ->
  result
(** [run ~engine pag queries] answers the batch and returns outcomes
    positionally. [jobs] defaults to 1 (inline, no spawn — the sequential
    baseline, answered in index order; the deque machinery still runs,
    which is what the smoke benches measure as scheduler overhead).
    [rounds] (default 1)
    splits the batch into consecutive chunks with a base-tier publish
    between chunks, so DYNSUM summaries learned early help later rounds
    even across domains; the last chunk publishes only into a
    caller-owned [base]. When
    [trace_writer] is given, every worker traces through its own
    {!Trace.buffered_jsonl} sink onto the shared writer — whole lines
    only — including per-steal {!Trace.Steal} and queue-depth events.

    [base] supplies an external (possibly size-bounded) summary tier to
    read through and publish into, instead of the per-call tier built by
    default; ignored for non-DYNSUM engines. Every round, the last
    included, is exported into it. The caller owns its
    freshness: the tier must describe the PAG as currently edited
    ({!Dynsum.base_invalidate} after every {!Pag.apply_edits}) and must
    not be touched while the run is in flight. The serve daemon uses
    this to make summary reuse cross-request.

    @raise Invalid_argument on [jobs < 1], [rounds < 1], an unknown
    engine name, or an unfrozen PAG. *)
