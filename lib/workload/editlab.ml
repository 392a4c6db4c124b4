module Prng = Pts_util.Prng
module Client = Pts_clients.Client
module Pipeline = Pts_clients.Pipeline
module Check = Pts_clients.Check

(* The incremental-editing laboratory: drive seeded edit bursts against a
   long-lived pipeline whose engines are invalidated in place (the
   incremental side), and after every burst rebuild the same edited graph
   from scratch — fresh Andersen run, fresh engines, the recorded scripts
   replayed burst-by-burst so even the oracle's conservative marks line
   up — and require the two worlds to agree: per-engine query outcomes
   must be [Query.equal_outcome] and [ptsto check] reports must be
   byte-identical across engines x jobs. The timing pair
   (incremental re-query vs full rebuild) is what BENCH_incr reports. *)

type burst_report = {
  b_index : int;  (** 1-based burst number *)
  b_edits : int;  (** edits actually applied (after no-op skips) *)
  b_stats : Incr.stats;
  b_incr_seconds : float;
      (** apply + invalidate + re-answer every query on live engines *)
  b_rebuild_seconds : float;
      (** compile + Andersen + replay + fresh engines + answer queries *)
  b_hash_equal : bool;  (** graph hashes agree after replay *)
  b_verdicts_equal : bool;  (** all engines' outcome vectors agree *)
  b_reports_equal : bool;  (** check reports byte-identical, all configs *)
}

type result = {
  r_bench : string;
  r_queries : int;
  r_engine_confs : int;  (** engine configurations compared *)
  r_report_runs : int;  (** check-report configurations compared per burst *)
  r_bursts : burst_report list;
  r_ok : bool;
}

(* A budget generous enough that every query resolves on the suite
   benches: warm summary caches then only save work, they can never flip
   a Resolved outcome to Exceeded (or vice versa) between the
   incremental and rebuilt sides. *)
let budget_limit = 2_000_000

let conf_for name =
  if String.equal name "stasum" then
    (* keep STASUM's offline enumeration bounded, as the benches do *)
    Engine.conf ~budget_limit ~max_field_depth:4 ()
  else Engine.conf ~budget_limit ()

let engine_names = [ "norefine"; "refinepts"; "dynsum"; "stasum" ]

let build_engines pag =
  List.map (fun name -> Engine.create ~conf:(conf_for name) name pag) engine_names

(* Queries come from the real clients, not a synthetic load: every cast
   and every dereference receiver in the program. Generation is a pure
   function of the IR, and both pipelines compile the same source, so
   the two sides' query lists are node-for-node aligned. *)
let queries_of pl =
  Pts_clients.Safecast.queries pl @ Pts_clients.Nullderef.queries pl

let checkers =
  [
    Pts_clients.Safecast.checker;
    Pts_clients.Nullderef.checker;
    Pts_clients.Devirt.checker;
    Pts_clients.Deadcode.checker;
  ]

(* Outcome vector of one engine over the query list. No [satisfy]: early
   exit would leave resolved sets partial and engine-dependent. *)
let answer engine queries =
  List.map (fun q -> engine.Engine.points_to q.Client.q_node) queries

let vectors_equal a b =
  List.length a = List.length b && List.for_all2 Query.equal_outcome a b

let report_string pl ~engine ~jobs =
  let opts =
    {
      Check.default_opts with
      Check.o_engine = engine;
      o_conf = conf_for engine;
      o_jobs = jobs;
    }
  in
  Trace.Json.to_string (Check.report_json (Check.run ~opts ~checkers pl))

let reports_agree ~jobs incr_pl rebuilt_pl =
  List.for_all
    (fun engine ->
      List.for_all
        (fun j ->
          String.equal
            (report_string incr_pl ~engine ~jobs:j)
            (report_string rebuilt_pl ~engine ~jobs:j))
        jobs)
    engine_names

let now () = Unix.gettimeofday ()

let run ?(report_jobs = [ 1; 2; 4 ]) ?(progress = fun _ -> ()) ~bench ~bursts
    ~edits_per_burst ~seed () =
  let source = Suite.source bench in
  (* Private pipeline: [Suite.pipeline] memoises, and an edited PAG must
     never leak into other users of the suite. *)
  let pl = Pipeline.of_source source in
  let incr = Incr.create pl.Pipeline.pag in
  let engines = build_engines pl.Pipeline.pag in
  List.iter (Incr.register incr) engines;
  let queries = queries_of pl in
  (* Warm pass: populate the summary caches so the first burst has
     something to retain (and something to invalidate). *)
  List.iter (fun e -> ignore (answer e queries)) engines;
  let rng = Prng.create seed in
  let scripts = ref [] (* newest first *) in
  let rows = ref [] in
  for b = 1 to bursts do
    let script = Editscript.burst rng pl.Pipeline.pag ~n:edits_per_burst in
    scripts := script :: !scripts;
    (* Incremental side: edit in place, invalidate, re-answer. *)
    let t0 = now () in
    let stats = Incr.apply incr script in
    let incr_vectors = List.map (fun e -> answer e queries) engines in
    let incr_seconds = now () -. t0 in
    (* From-scratch side: recompile, re-run Andersen, replay the recorded
       scripts burst-by-burst (so oracle invalidation marks match), build
       fresh engines. *)
    let t0 = now () in
    let rpl = Pipeline.of_source source in
    List.iter
      (fun s -> ignore (Pag.apply_edits rpl.Pipeline.pag s))
      (List.rev !scripts);
    let rebuilt_engines = build_engines rpl.Pipeline.pag in
    let rqueries = queries_of rpl in
    let rebuilt_vectors = List.map (fun e -> answer e rqueries) rebuilt_engines in
    let rebuild_seconds = now () -. t0 in
    let hash_equal =
      Pag.graph_hash pl.Pipeline.pag = Pag.graph_hash rpl.Pipeline.pag
      && Pag.epoch pl.Pipeline.pag = Pag.epoch rpl.Pipeline.pag
    in
    let verdicts_equal = List.for_all2 vectors_equal incr_vectors rebuilt_vectors in
    let reports_equal = reports_agree ~jobs:report_jobs pl rpl in
    progress
      (Printf.sprintf
         "burst %d/%d: %d edits, %d dirty, dropped %d retained %d, incr %.3fs \
          rebuild %.3fs, hash=%b verdicts=%b reports=%b"
         b bursts
         (stats.Incr.i_inserted + stats.Incr.i_deleted)
         stats.Incr.i_dirty stats.Incr.i_dropped stats.Incr.i_retained
         incr_seconds rebuild_seconds hash_equal verdicts_equal reports_equal);
    rows :=
      {
        b_index = b;
        b_edits = stats.Incr.i_inserted + stats.Incr.i_deleted;
        b_stats = stats;
        b_incr_seconds = incr_seconds;
        b_rebuild_seconds = rebuild_seconds;
        b_hash_equal = hash_equal;
        b_verdicts_equal = verdicts_equal;
        b_reports_equal = reports_equal;
      }
      :: !rows
  done;
  let bursts_done = List.rev !rows in
  {
    r_bench = bench;
    r_queries = List.length queries;
    r_engine_confs = List.length engine_names;
    r_report_runs = List.length engine_names * List.length report_jobs;
    r_bursts = bursts_done;
    r_ok =
      List.for_all
        (fun r -> r.b_hash_equal && r.b_verdicts_equal && r.b_reports_equal)
        bursts_done;
  }
