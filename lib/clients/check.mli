(** The checker driver: batch-evaluates {e check points} from any number
    of checkers through one engine run and turns refutations into
    {!Diag.t} records with witness traces.

    A check point is the typed successor of {!Client.query}: the same
    anti-monotone predicate over a points-to answer, plus everything
    needed to render a diagnostic when the predicate fails — location,
    severity, the subset of sites that violate it, and a message
    builder. {!Client.query} values are derived from points via
    {!to_query}, so the legacy [Client.run] path and the bench harness
    keep working off the same definitions.

    The driver deduplicates points by PAG node (many instructions deref
    the same variable), answers each unique node once under the
    {!Parsolve} scheduler, and reads every point's verdict from the
    memoised outcome. Queries are issued {e without} [satisfy]: early
    exit leaves resolved sets partial and engine-dependent, and report
    byte-identity across engines / jobs is an acceptance criterion of
    the subsystem. *)

type ctx = {
  cx_pl : Pipeline.t;
  cx_stats : Pts_util.Stats.t;
      (** checkers bump their own counters here (pre-filter skips,
          summary reuse, …); merged into the report stats *)
}

type point = {
  pt_node : Pag.node;  (** the variable whose points-to set is queried *)
  pt_desc : string;  (** legacy [Client.q_desc] text *)
  pt_method : string;  (** pretty name of the enclosing method *)
  pt_line : int;  (** user-source line, 0 if the IR carries none *)
  pt_severity : Diag.severity;  (** severity of a refutation *)
  pt_pred : Query.Target_set.t -> bool;  (** anti-monotone, as before *)
  pt_bad_sites : int list -> int list;
      (** the violating subset of the (sorted) answer sites; witnesses
          are sought for these, in order *)
  pt_message : int list -> string;  (** violating sites -> message *)
}

type checker = {
  ck_name : string;
  ck_doc : string;
  ck_points : ctx -> point list;  (** engine-backed points *)
  ck_cheap : ctx -> Diag.t list;
      (** diagnostics needing no CFL queries (lints off the Andersen
          call graph); run unconditionally *)
}

val make :
  ?points:(ctx -> point list) ->
  ?cheap:(ctx -> Diag.t list) ->
  doc:string ->
  string ->
  checker

val to_query : point -> Client.query
val queries_of : Pipeline.t -> checker -> Client.query list

val sites_blurb : Ir.program -> int list -> string
(** Comma-joined site names (["o12:Vector (new in App0.run:34)"], or
    ["o3:null"]), truncated after three with ["(+k more)"]. *)

type opts = {
  o_engine : string;  (** registry name; default ["dynsum"] *)
  o_conf : Conf.t;
  o_jobs : int;  (** {!Parsolve} worker domains; default 1 *)
  o_base : Dynsum.base option;
      (** external summary tier handed to {!Parsolve.run} (the serve
          daemon's cross-request store); default [None] — no tier, the
          batch's summaries live and die with its engines. Freshness is
          the caller's contract, see {!Parsolve.run}. *)
}

val default_opts : opts

type report = {
  r_diags : Diag.t list;  (** sorted by {!Diag.compare}, deduplicated *)
  r_points : int;
  r_unique_nodes : int;
  r_dedup_hits : int;  (** [r_points - r_unique_nodes] *)
  r_cheap : int;  (** diagnostics from cheap passes *)
  r_stats : Pts_util.Stats.t;
      (** checker counters + merged engine counters + [dedup_hits] *)
  r_seconds : float;
}

val run : ?opts:opts -> checkers:checker list -> Pipeline.t -> report

val max_severity : report -> Diag.severity option
(** Highest severity present, for the [--fail-on] gate. *)

val report_json : report -> Trace.Json.t
(** Machine-readable report, schema ["ptsto.check-report/1"]. Contains
    only engine-independent data (sorted findings and their counts), so
    the serialised bytes are identical across engines and job counts
    whenever the verdicts are. *)
