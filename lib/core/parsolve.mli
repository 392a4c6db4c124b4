(** Multicore batch-query evaluation over a frozen, CSR-packed PAG.

    A batch of points-to queries is distributed across [jobs] worker
    domains. Every domain builds its {e own} engine instance from the
    {!Engine} registry against the one shared (frozen, hence immutable)
    {!Pag.t} — engines are single-domain state; the graph, the task
    deques and the summary base tier are the only things the domains
    share.

    {b Scheduling.} One {!Wsdeque} per domain. The batch is split into
    [jobs] contiguous blocks in arrival order, and each owner pops its
    block in index order, so one domain answers exactly as a sequential
    loop would. A domain that runs dry steals from the fullest peer (the
    tail of its block), so wall-clock tracks total work instead of the
    worst shard. Each query is answered {e exactly once} by {e some}
    single-domain engine, so the verdicts are those of a sequential run:
    scheduling moves work, never changes it (pinned by the cross-jobs
    set-equality tests). Order does not change how much DYNSUM work a
    batch does either, only which domain derives a summary first: PPTA
    summaries are context-independent (see DESIGN.md).

    {b Summary reuse.} Within a domain, DYNSUM summaries are reused
    across that engine's queries. Across domains and calls, the only
    shared store is the caller's [?base] tier ({!Dynsum.base}): every
    worker reads it by reference on cache miss, and after the workers
    join, their structural {!Dynsum.snapshot}s are merged into it.
    Merging cannot change answers: a PPTA summary is
    context-independent, so a summary computed under one domain's query
    mix is valid under any other's (see DESIGN.md, "Parallel batch
    evaluation and the packed PAG").

    {b Export on demand.} Snapshotting and sorting only pays off if
    something reads the result, so workers snapshot what they derived
    only when the caller passed a tier. Without one, nothing of the run
    outlives the call: the workers hand back no summaries at all.

    Hash-consed stacks never cross domains raw: snapshots carry symbol
    lists, and worker outcomes are {!Pts_util.Hstack.rebase}d into the
    main domain's store before they land in {!type:result}. *)

type query = { node : Pag.node; satisfy : (Query.Target_set.t -> bool) option }

val query : ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> query

type domain_report = {
  dr_domain : int;
  dr_queries : int;  (** queries this domain answered *)
  dr_steps : int;  (** its engine's cumulative edge traversals *)
  dr_seconds : float;  (** wall-clock inside the worker, excluding spawn/join *)
  dr_summaries : int;
      (** summaries this domain {e computed itself} (base-tier hits
          excluded); for non-DYNSUM engines, its engine's table size *)
  dr_steals : int;  (** tasks this domain lifted from peers *)
}

type result = {
  outcomes : Query.outcome array;
      (** one per input query, same order; context stacks are interned in
          the calling domain's store and safe to compare against
          sequential results *)
  reports : domain_report list;  (** one per domain, in domain order *)
  stats : Pts_util.Stats.t;
      (** all workers' counters, merged; plus ["steals"] when any
          occurred. With a [?base] tier, DYNSUM's per-run ["base_hits"]
          and ["base_misses"] are here; the tier's lifetime tallies are
          the caller's to read ({!Dynsum.base_hits}) *)
  wall_seconds : float;  (** whole batch, including spawn/join/merge *)
  jobs : int;
  steals : int;  (** total successful steals *)
  actual_steps : int array;  (** kernel steps each query actually charged, input order *)
  merged_summaries : int;
      (** total DYNSUM summaries {e derived} across all domains (0 for
          other engines); two domains may derive the same key *)
}

val run :
  ?conf:Conf.t ->
  ?trace_writer:Trace.writer ->
  ?jobs:int ->
  ?base:Dynsum.base ->
  engine:string ->
  Pag.t ->
  query array ->
  result
(** [run ~engine pag queries] answers the batch and returns outcomes
    positionally. [jobs] defaults to 1 (inline, no spawn — the sequential
    baseline, answered in index order; the deque machinery still runs,
    which is what the smoke benches measure as scheduler overhead). When
    [trace_writer] is given, every worker traces through its own
    {!Trace.buffered_jsonl} sink onto the shared writer — whole lines
    only — including per-steal {!Trace.Steal} and queue-depth events.

    [base] supplies a (possibly size-bounded) summary tier to read
    through and publish into; ignored for non-DYNSUM engines. After the
    call it holds every summary the run derived (less any evicted): this
    is how a caller keeps or persists them ({!Dynsum.save_base}). The
    caller owns its freshness: the tier must describe the PAG as
    currently edited ({!Dynsum.base_invalidate} after every
    {!Pag.apply_edits}) and must not be touched while the run is in
    flight. The serve daemon uses this to make summary reuse
    cross-request.

    @raise Invalid_argument on [jobs < 1], an unknown engine name, or an
    unfrozen PAG. *)
