(** DYNSUM — Algorithm 4 of the paper, this reproduction's core
    contribution.

    {!Kernel.solve} propagates query states [(u, f, s, c)] across the
    context-dependent {e global} edges according to the RRP machine of
    Figure 3(b), while all work along {e local} edges is delegated to the
    context-independent {!Ppta} and cached in a summary table keyed by
    [(u, f, s)]. Summaries therefore accumulate {e across} queries and are
    reused under arbitrary calling contexts without precision loss, which
    is what makes DYNSUM outperform REFINEPTS on query-heavy clients.

    The cache persists for the lifetime of the engine; clearing between
    batches (for ablations) is explicit via {!clear_cache}. As the paper's
    implementation note prescribes, nodes without local edges bypass the
    PPTA (and the cache) entirely. *)

module Cache_key : sig
  type t = int * int * int (** node, field-stack id, state *)

  val equal : t -> t -> bool
  val hash : t -> int
end

type t

val create : ?conf:Conf.t -> ?trace:Trace.sink -> Pag.t -> t

val points_to : t -> ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> Query.outcome
(** Demand query with the empty initial context.

    {b Precision/semantics of [satisfy]}: unlike REFINEPTS — whose passes
    over-approximate, so a satisfied pass proves the client — DYNSUM's
    worklist grows its answer from below. The only sound early exit is
    therefore in the {e refutation} direction: the query stops as soon as
    the accumulated partial set {e falsifies} the (anti-monotone)
    predicate, since every superset — in particular the exact answer —
    then falsifies it too. The client verdict is unchanged in all cases:
    a satisfied run completes and returns the exact set; a refuted run
    may return early with a partial set on which the predicate is already
    false. Callers that need the full points-to set must not pass
    [satisfy]. *)

val points_to_in :
  t -> ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> Pts_util.Hstack.t -> Query.outcome
(** Query under a given initial calling context; [satisfy] as in
    {!points_to}. *)

val summary_count : t -> int
(** Number of cached PPTA summaries (the size of [Cache] in Algorithm 4 —
    the quantity Figure 5 compares against STASUM). *)

val summary_points : t -> int
(** Distinct (node, direction) pairs covered by the cache — a coarser
    count, comparable to per-boundary-node summary units as in Yan et
    al.'s STASUM, reported alongside the raw cache size in Figure 5. *)

val clear_cache : t -> unit

val invalidate : t -> Pag.node list -> int * int
(** [invalidate t dirty] drops every cached summary that the
    {!Footprint.stale} cut condemns for the dirty set of an edit burst
    ({!Pag.commit}'s [c_dirty]), reading each footprint off the cached
    summary ({!Ppta.summary}'s [fp]); all other entries are provably
    unaffected and survive. Returns [(dropped, retained)]. *)

(** {2 Snapshots}

    Summaries leave an engine only through a {!base} tier: a worker
    snapshots what it computed and the main domain merges the snapshot
    into the tier with {!base_add}. *)

type snapshot
(** Structural (domain-portable) image of a summary cache: field stacks
    travel as symbol lists, never as hash-cons ids, so a snapshot taken
    in one domain can be added to a tier read by any other. *)

val snapshot : t -> snapshot
(** Image of the summaries {e this engine computed itself}: entries
    memoised from a shared {!base} tier are excluded, so the parallel
    scheduler's per-worker snapshots count each summary's derivation
    exactly once. Sorted, so the order {!base_add} inserts (and later
    evicts) entries does not depend on insertion, hence scheduling,
    order. *)

(** {2 Shared base tier}

    The merged summaries of earlier batches live in a {!base}: a
    structurally-keyed table
    built once on the main domain and shared {e by reference} across
    worker engines, structurally read-only after {!set_base} (the main
    domain only grows or evicts between batches, after every worker has
    joined — the only per-entry mutables workers touch are the atomic
    hit/miss tallies and the clock bit, both race-tolerant). Lookups
    re-intern lazily on first use and memoise into the engine's local
    overlay cache; such borrowed entries never appear in the engine's own
    {!snapshot}.

    The serve daemon promotes the same table to a {e cross-request} tier:
    size-bounded with second-chance (clock) eviction, hit/miss/eviction
    counters, and footprint-keyed invalidation so an edit burst evicts
    exactly the dirtied summaries instead of flushing the store.

    The tier is also what persists: {!save_base} and {!load_base} carry
    it across restarts. *)

type base
(** Merged summary table, shareable across domains because its keys and
    payloads are structural (no hash-cons ids). *)

val base_create : ?capacity:int -> unit -> base
(** [capacity] bounds the number of resident entries; [0] (the default)
    means unbounded. @raise Invalid_argument on a negative capacity. *)

val base_add : base -> snapshot -> int
(** Merge a snapshot into the base, first-writer-wins per key; returns
    how many keys were new. At capacity, each insertion first evicts the
    next clock victim (an entry that has not been hit since its last
    second chance). Must only be called while no domain is reading the
    base (after a batch's workers join / between serve requests). *)

val base_invalidate : base -> Pag.node list -> int * int
(** [base_invalidate b dirty] drops every entry the {!Footprint.stale} cut
    condemns for the dirty set of an edit burst ({!Pag.commit}'s
    [c_dirty]), exactly like the per-engine {!invalidate}; all other
    entries provably still describe the edited graph and survive.
    Returns [(dropped, retained)]. Must not run concurrently with
    readers. *)

val base_length : base -> int

val base_capacity : base -> int
(** The configured bound; [0] = unbounded. *)

val base_hits : base -> int
(** Lifetime lookup hits against this base, across all attached engines
    and batches. *)

val base_misses : base -> int
(** Lifetime lookups that fell through to a PPTA run (counted only when
    a base is attached). *)

val base_evictions : base -> int
(** Entries removed by the clock sweep (capacity pressure only —
    invalidation drops are reported by {!base_invalidate}). *)

val set_base : t -> base -> unit
(** Attach a shared base tier below this engine's cache. *)

val new_summary_count : t -> int
(** Summaries this engine computed itself (excludes base-tier memos) —
    the per-domain "new work" figure the scheduler reports. *)

(** {2 Persistence}

    An IDE wants the accumulated summaries to survive restarts. The file
    ([ptsto-dynsum-cache-v2]) holds a header — a fingerprint of the PAG
    (node and per-kind edge counts), its {!Pag.graph_hash} and epoch —
    and the tier's entries as one sorted structural snapshot, so its
    bytes do not depend on the order the summaries arrived in. In the
    file each entry's footprint is its ascending node list; in memory
    (tier entries, snapshots, cached summaries) it is the bitmask
    {!Footprint.t}, converted at {!save_base} and {!load_base}. *)

val save_base : base -> Pag.t -> string -> unit
(** Write the tier, built against [pag], to a file.
    @raise Sys_error on IO failure. *)

val load_base : base -> Pag.t -> string -> (int, string) result
(** Merge a saved tier into [b] with {!base_add}; returns the number of
    entries that were new, or an error for a missing/corrupt file, a
    PAG-fingerprint mismatch, or a {!Pag.graph_hash} mismatch (so a file
    from a drifted build of the same program — where node/edge {e counts}
    may still collide — is refused rather than replayed), or an entry
    naming a node, state, allocation site or stack symbol outside [pag]
    (["corrupt cache file"]). All or nothing: the file is decoded and
    checked in full before any entry reaches the tier, so a failure
    leaves it unchanged. The payload is read with [Marshal], which is
    type-unsafe: a file whose payload has the wrong {e shape} under a
    valid header is still not detected, and may crash the reader. *)

val budget : t -> Budget.t
val stats : t -> Pts_util.Stats.t
(** Counters: ["queries"], ["exceeded"], ["summary_hits"] and
    ["summary_misses"] (summary cache lookups), ["no_local_fastpath"]. *)
