(** Client framework: queries, verdicts, batching.

    A client turns program points into points-to queries, each with an
    anti-monotone predicate ("every object in the set is benign"), so that
    REFINEPTS may stop refining as soon as an over-approximate answer
    already satisfies it — exactly the paper's [satisfyClient]. *)

type verdict =
  | Proved  (** property holds *)
  | Refuted  (** exact answer violates the property *)
  | Unknown  (** budget exceeded *)

type query = {
  q_node : Pag.node;
  q_desc : string; (** e.g. ["cast@14 Main.main"] *)
  q_pred : Query.Target_set.t -> bool; (** must be anti-monotone *)
}

type tally = { proved : int; refuted : int; unknown : int }

val total : tally -> int
val add_tally : tally -> tally -> tally

type run_result = {
  tally : tally;
  verdicts : (query * verdict) list; (** each query's verdict, in query order *)
  seconds : float;
  steps : int; (** deterministic budget steps consumed *)
  summaries_after : int; (** engine's summary-cache size after the run *)
}

val run : Engine.engine -> query list -> run_result
(** Issue the queries in order against the engine. *)

val run_batches : Engine.engine -> query list -> batches:int -> run_result list
(** Split the query sequence into [batches] consecutive batches (the first
    [batches-1] of size [n/batches], the last taking the remainder, as in
    §5.3) and report per-batch results. The engine is shared, so caches
    persist across batches. *)

val verdict_of : (Query.Target_set.t -> bool) -> Query.outcome -> verdict

val tally_of : (query * verdict) list -> tally

val pp_tally : Format.formatter -> tally -> unit

val verdicts_json : client:string -> (query * verdict) list -> Trace.Json.t
(** Canonical machine-readable verdicts, schema ["ptsto.verdicts/1"]:
    query/proved counts plus the refuted and unknown descriptions in
    query order. Engine-independent by construction — [ptsto client
    --verdicts-json] and the serve daemon's [query] responses both
    render through this, so cross-checking them is a byte comparison. *)
