(** The incremental-editing laboratory.

    Drives seeded {!Editscript} bursts against a long-lived pipeline
    whose engines are invalidated in place through {!Incr}, and after
    every burst rebuilds the same edited graph from scratch (fresh
    compile, fresh Andersen run, recorded scripts replayed
    burst-by-burst, fresh engines). Correctness is pinned two ways:
    per-engine query outcomes must be {!Query.equal_outcome}, and
    [ptsto check] reports must serialise to byte-identical JSON across
    all four engines x the given job counts. The timing
    pair (incremental re-query vs full rebuild) is what [BENCH_incr]
    reports. *)

type burst_report = {
  b_index : int;  (** 1-based burst number *)
  b_edits : int;  (** edits actually applied (after no-op skips) *)
  b_stats : Incr.stats;
  b_incr_seconds : float;
      (** apply + invalidate + re-answer every query on live engines *)
  b_rebuild_seconds : float;
      (** compile + Andersen + replay + fresh engines + answer queries *)
  b_hash_equal : bool;  (** graph hash and epoch agree after replay *)
  b_verdicts_equal : bool;  (** all engines' outcome vectors agree *)
  b_reports_equal : bool;  (** check reports byte-identical, all configs *)
}

type result = {
  r_bench : string;
  r_queries : int;
  r_engine_confs : int;  (** engine configurations compared *)
  r_report_runs : int;  (** check-report configurations compared per burst *)
  r_bursts : burst_report list;
  r_ok : bool;  (** every burst passed every equality check *)
}

val run :
  ?report_jobs:int list ->
  ?progress:(string -> unit) ->
  bench:string ->
  bursts:int ->
  edits_per_burst:int ->
  seed:int ->
  unit ->
  result
(** [run ~bench ~bursts ~edits_per_burst ~seed ()] uses a private
    pipeline for [bench] (the memoised {!Suite.pipeline} is never
    edited). [report_jobs] defaults to [[1; 2; 4]]. [progress] receives
    one human-readable line per burst. *)
