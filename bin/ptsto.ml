(* ptsto — command-line front door to the reproduction.

     ptsto stats prog.mj                     PAG and call-graph statistics
     ptsto ir prog.mj                        dump the lowered IR
     ptsto query prog.mj -m Main.main -v s1  answer one points-to query
     ptsto client prog.mj -c safecast        run a client's query set
     ptsto compare prog.mj                   all engines x all clients
     ptsto edit --bench soot-c               edit bursts: incremental vs rebuild
     ptsto gen soot-c -o prog.mj             emit a generated benchmark

   Every subcommand accepts --bench NAME instead of a file to run on a
   generated benchmark directly. *)

open Cmdliner

module Table = Pts_util.Table
module Pipeline = Pts_clients.Pipeline
module Client = Pts_clients.Client

let clients = Pts_clients.Queryset.all

(* ----------------------------- arguments ---------------------------- *)

let file_arg =
  Arg.(
    value & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Source file (MiniJava, or MiniFun with --lang minifun / a .mf extension).")

let lang_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              [ ("mjava", Loc.Mjava); ("minijava", Loc.Mjava); ("minifun", Loc.Minifun); ("mf", Loc.Minifun) ]))
        None
    & info [ "lang" ] ~docv:"LANG"
        ~doc:
          "Surface language of FILE (mjava|minifun). Default: inferred from the file extension \
           ($(b,.mf)/$(b,.minifun) is MiniFun, anything else MiniJava).")

(* the effective language: an explicit --lang wins over the extension *)
let lang_of lang file =
  match (lang, file) with
  | Some l, _ -> l
  | None, Some path -> Frontend.lang_of_path path
  | None, None -> Loc.Mjava

let bench_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun n -> (n, n)) Pts_workload.Suite.names))) None
    & info [ "bench" ] ~docv:"NAME" ~doc:"Use a generated benchmark instead of a file.")

let engine_arg =
  let names = Engine.names () in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "dynsum"
    & info [ "engine"; "e" ] ~docv:"ENGINE"
        ~doc:(Printf.sprintf "Analysis engine (%s)." (String.concat "|" names)))

let budget_arg =
  Arg.(
    value & opt int Conf.default.Conf.budget_limit
    & info [ "budget" ] ~docv:"N" ~doc:"Per-query traversal budget.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Write a JSONL trace of engine events to $(docv).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics-json" ] ~doc:"Emit a machine-readable per-engine metrics object on stdout.")

(* --jobs N|auto: "auto" resolves at parse time, so every consumer just
   sees a validated positive int. *)
let jobs_conv =
  let parse = function
    | "auto" -> Ok (Domain.recommended_domain_count ())
    | s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "JOBS must be >= 1 (got %d)" n))
      | None -> Error (`Msg (Printf.sprintf "JOBS must be a positive integer or 'auto' (got %s)" s)))
  in
  Arg.conv ~docv:"JOBS" (parse, Format.pp_print_int)

let jobs_arg ~doc =
  Arg.(
    value & opt jobs_conv 1
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          (doc
         ^ " $(docv) is a positive integer, or $(b,auto) for the host's recommended domain \
            count — e.g. $(b,--jobs auto)."))

(* One shared sink per invocation: a [--trace FILE] JSONL writer, or null. *)
let with_trace trace f =
  let sink =
    match trace with
    | None -> Trace.null
    | Some path -> (
      match Trace.to_file path with
      | sink -> sink
      | exception Sys_error msg ->
        Printf.eprintf "error: cannot open trace file: %s\n" msg;
        exit 1)
  in
  Fun.protect ~finally:(fun () -> Trace.close sink) (fun () -> f sink)

(* each row is an engine plus an optional client label — [compare] runs
   fresh engines per client, so the label is what keeps rows apart *)
let metrics_json rows =
  let open Trace.Json in
  let get e k = Pts_util.Stats.get e.Engine.stats k in
  Obj
    [
      ("schema", String "ptsto.metrics/2");
      ( "engines",
        List
          (List.map
             (fun (client, (e : Engine.engine)) ->
               Obj
                 ((match client with None -> [] | Some c -> [ ("client", String c) ])
                 @ [
                   ("engine", String e.Engine.name);
                   ("steps", Int (Budget.total_steps e.Engine.budget));
                   ("queries", Int (get e "queries"));
                   ("summary_hits", Int (get e "summary_hits"));
                   ("summary_misses", Int (get e "summary_misses"));
                   ("summaries", Int (e.Engine.summary_count ()));
                   ( "counters",
                     Obj (List.map (fun (k, v) -> (k, Int v)) (Pts_util.Stats.to_list e.Engine.stats))
                   );
                 ]))
             rows) );
    ]

let print_metrics rows = print_endline (Trace.Json.to_string (metrics_json rows))

(* ------------------------------ commands ---------------------------- *)

let with_pipeline ?lang file bench f =
  match (file, bench) with
  | _, Some name -> f (Pts_workload.Suite.pipeline name)
  | Some path, None -> (
    match Frontend.compile_file ?lang path with
    | prog -> f (Pipeline.of_program prog)
    | exception Frontend.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1)
  | None, None ->
    Printf.eprintf "error: either FILE or --bench NAME is required\n";
    exit 1

let stats_cmd lang file bench =
  with_pipeline ?lang file bench (fun pl ->
      let pag = pl.Pipeline.pag in
      let c = Pag.edge_counts pag in
      let o, v, g = Pag.touched_counts pag in
      let t = Table.create ~title:"PAG statistics" [ ("metric", Table.Left); ("value", Table.Right) ] in
      List.iter
        (fun (k, n) -> Table.add_row t [ k; string_of_int n ])
        [
          ("reachable methods", List.length (Pts_andersen.Solver.reachable_methods pl.Pipeline.solver));
          ("objects (O)", o);
          ("locals (V)", v);
          ("globals (G)", g);
          ("new edges", c.Pag.n_new);
          ("assign edges", c.Pag.n_assign);
          ("load edges", c.Pag.n_load);
          ("store edges", c.Pag.n_store);
          ("entry edges", c.Pag.n_entry);
          ("exit edges", c.Pag.n_exit);
          ("assignglobal edges", c.Pag.n_assign_global);
          ("call-graph edges", Callgraph.edge_count pl.Pipeline.callgraph);
        ];
      Table.add_row t [ "locality"; Table.fmt_pct (Pag.locality pag) ];
      Table.print t)

let ir_cmd lang file bench =
  with_pipeline ?lang file bench (fun pl -> Format.printf "%a@." Ir.pp_program pl.Pipeline.prog)

let query_cmd lang file bench meth var engine_name budget trace metrics =
  with_pipeline ?lang file bench (fun pl ->
      with_trace trace (fun sink ->
          let conf = Engine.conf ~budget_limit:budget () in
          let engine = Engine.create ~conf ~trace:sink engine_name pl.Pipeline.pag in
          match Pipeline.find_local pl ~meth_pretty:meth ~var with
          | exception Not_found ->
            Printf.eprintf "error: no variable %s in method %s\n" var meth;
            exit 1
          | node ->
            let outcome, dt = Pts_util.Stats.time (fun () -> engine.Engine.points_to node) in
            (match outcome with
            | Query.Exceeded -> Printf.printf "budget exceeded (%d steps)\n" budget
            | Query.Resolved ts ->
              let prog = pl.Pipeline.prog in
              Printf.printf "%s points to %d object(s) [%s, %.3fs, %d steps]:\n"
                (Pag.node_name pl.Pipeline.pag node)
                (List.length (Query.sites ts))
                engine.Engine.name dt
                (Budget.total_steps engine.Engine.budget);
              List.iter
                (fun site ->
                  let a = prog.Ir.allocs.(site) in
                  Printf.printf "  %-24s allocated in %s (line %d)\n" (Ir.alloc_name prog site)
                    prog.Ir.methods.(a.Ir.alloc_meth).Ir.pretty a.Ir.alloc_pos.Loc.line)
                (Query.sites ts));
            if metrics then print_metrics [ (None, engine) ]))

(* One driver at every --jobs: at jobs 1, Parsolve answers the batch in
   arrival order on one engine, exactly as a sequential loop would. With
   --cache, a dynsum tier loaded from the file is read through and grown
   by the run, then saved back. *)
let client_cmd lang file bench client_key engine_name budget cache_file trace metrics vjson
    jobs =
  with_pipeline ?lang file bench (fun pl ->
      let pag = pl.Pipeline.pag in
      let cname, queries_of = List.assoc client_key clients in
      let cache =
        match cache_file with
        | Some path when engine_name = "dynsum" ->
          let b = Dynsum.base_create () in
          (if Sys.file_exists path then
             match Dynsum.load_base b pag path with
             | Ok n -> Printf.printf "loaded %d summaries from %s\n" n path
             | Error e -> Printf.printf "ignoring cache %s: %s\n" path e);
          Some (b, path)
        | Some _ ->
          Printf.eprintf "warning: --cache only applies to the dynsum engine\n";
          None
        | None -> None
      in
      let conf = Engine.conf ~budget_limit:budget () in
      let writer = Option.map Trace.writer_to_file trace in
      let queries = queries_of pl in
      let qarr =
        Array.of_list
          (List.map (fun q -> Parsolve.query ~satisfy:q.Client.q_pred q.Client.q_node) queries)
      in
      let r =
        Parsolve.run ~conf ?trace_writer:writer ~jobs ?base:(Option.map fst cache)
          ~engine:engine_name pag qarr
      in
      Option.iter Trace.writer_close writer;
      let steps = Array.fold_left ( + ) 0 r.Parsolve.actual_steps in
      let verdicts =
        List.mapi (fun i q -> (q, Client.verdict_of q.Client.q_pred r.Parsolve.outcomes.(i))) queries
      in
      let tally = Client.tally_of verdicts in
      Printf.printf
        "%s with %s: %d queries in %.3fs (%d steps, %d jobs, %d steals)\n"
        cname engine_name (Array.length qarr) r.Parsolve.wall_seconds steps r.Parsolve.jobs
        r.Parsolve.steals;
      Format.printf "  %a@." Client.pp_tally tally;
      List.iter
        (fun d ->
          Printf.printf "  domain %d: %d queries, %d steps, %.3fs, %d summaries, %d steals\n"
            d.Parsolve.dr_domain d.Parsolve.dr_queries d.Parsolve.dr_steps d.Parsolve.dr_seconds
            d.Parsolve.dr_summaries d.Parsolve.dr_steals)
        r.Parsolve.reports;
      List.iter
        (fun (q, v) ->
          match v with
          | Client.Refuted -> Printf.printf "  REFUTED %s\n" q.Client.q_desc
          | Client.Unknown -> Printf.printf "  UNKNOWN %s\n" q.Client.q_desc
          | Client.Proved -> ())
        verdicts;
      if vjson then
        print_endline (Trace.Json.to_string (Client.verdicts_json ~client:cname verdicts));
      (match cache with
      | Some (b, path) ->
        Dynsum.save_base b pag path;
        Printf.printf "saved %d summaries to %s\n" (Dynsum.base_length b) path
      | None -> ());
      if metrics then
        let open Trace.Json in
        print_endline
          (to_string
             (Obj
                [
                  ("schema", String "ptsto.parallel-metrics/6");
                  ("engine", String engine_name);
                  ("jobs", Int r.Parsolve.jobs);
                  ("recommended_domains", Int (Domain.recommended_domain_count ()));
                  ("queries", Int (Array.length qarr));
                  ("steps", Int steps);
                  ("wall_seconds", Float r.Parsolve.wall_seconds);
                  ("steals", Int r.Parsolve.steals);
                  ("merged_summaries", Int r.Parsolve.merged_summaries);
                  ( "domains",
                    List
                      (List.map
                         (fun d ->
                           Obj
                             [
                               ("domain", Int d.Parsolve.dr_domain);
                               ("queries", Int d.Parsolve.dr_queries);
                               ("steps", Int d.Parsolve.dr_steps);
                               ("seconds", Float d.Parsolve.dr_seconds);
                               ("summaries", Int d.Parsolve.dr_summaries);
                               ("steals", Int d.Parsolve.dr_steals);
                             ])
                         r.Parsolve.reports) );
                  ( "counters",
                    Obj (List.map (fun (k, v) -> (k, Int v)) (Pts_util.Stats.to_list r.Parsolve.stats))
                  );
                ])))

let compare_cmd lang file bench budget trace metrics =
  with_pipeline ?lang file bench (fun pl ->
      with_trace trace (fun sink ->
      let conf = Engine.conf ~budget_limit:budget () in
      let t =
        Table.create
          [
            ("client", Table.Left);
            ("engine", Table.Left);
            ("proved", Table.Right);
            ("refuted", Table.Right);
            ("unknown", Table.Right);
            ("seconds", Table.Right);
            ("steps", Table.Right);
            ("summaries", Table.Right);
          ]
      in
      let used = ref [] in
      List.iter
        (fun (_, (cname, queries_of)) ->
          let queries = queries_of pl in
          List.iter
            (fun (engine : Engine.engine) ->
              used := (Some cname, engine) :: !used;
              let r = Client.run engine queries in
              Table.add_row t
                [
                  cname;
                  engine.Engine.name;
                  string_of_int r.Client.tally.Client.proved;
                  string_of_int r.Client.tally.Client.refuted;
                  string_of_int r.Client.tally.Client.unknown;
                  Printf.sprintf "%.3f" r.Client.seconds;
                  string_of_int r.Client.steps;
                  string_of_int r.Client.summaries_after;
                ])
            (Pipeline.engines ~conf ~trace:sink pl);
          Table.add_sep t)
        clients;
      Table.print t;
      if metrics then print_metrics (List.rev !used)))

let alias_cmd lang file bench meth var1 var2 engine_name budget =
  with_pipeline ?lang file bench (fun pl ->
      let conf = Engine.conf ~budget_limit:budget () in
      let engine = Engine.create ~conf engine_name pl.Pipeline.pag in
      let node v =
        match Pipeline.find_local pl ~meth_pretty:meth ~var:v with
        | n -> n
        | exception Not_found ->
          Printf.eprintf "error: no variable %s in method %s\n" v meth;
          exit 1
      in
      let x = node var1 and y = node var2 in
      let show = function
        | Alias.Must_not -> "must-not-alias"
        | Alias.May -> "may-alias"
        | Alias.Unknown -> "unknown (budget exceeded)"
      in
      let pag = pl.Pipeline.pag in
      Printf.printf "%s ~ %s: %s (with heap contexts), %s (sites only)\n" var1 var2
        (show (Alias.may_alias pag engine x y))
        (show (Alias.may_alias_sites pag engine x y)))

let why_cmd lang file bench meth var site =
  with_pipeline ?lang file bench (fun pl ->
      let pag = pl.Pipeline.pag in
      match Pipeline.find_local pl ~meth_pretty:meth ~var with
      | exception Not_found ->
        Printf.eprintf "error: no variable %s in method %s\n" var meth;
        exit 1
      | node -> (
        match Witness.explain pag node ~site with
        | None -> Printf.printf "o%d is not in the points-to set of %s (or budget exceeded)\n" site var
        | Some steps ->
          Printf.printf "%s may point to %s because:\n" (Pag.node_name pag node)
            (Ir.alloc_name pl.Pipeline.prog site);
          List.iter print_endline (Witness.render pag steps)))

(* [run] is the quickstart driver: compile, answer every client's query
   set with one engine, then close the loop with the Devirtopt pass and
   report what the analysis let it rewrite. *)
let run_cmd lang file bench engine_name budget metrics =
  with_pipeline ?lang file bench (fun pl ->
      let prog = pl.Pipeline.prog in
      let conf = Engine.conf ~budget_limit:budget () in
      Printf.printf "%s program: %d methods (%d reachable), %d allocation sites, %d call sites\n"
        (Loc.lang_name prog.Ir.lang)
        (Array.length prog.Ir.methods)
        (List.length (Pts_andersen.Solver.reachable_methods pl.Pipeline.solver))
        (Array.length prog.Ir.allocs) (Array.length prog.Ir.calls);
      let used = ref [] in
      List.iter
        (fun (_, (cname, queries_of)) ->
          let engine = Engine.create ~conf engine_name pl.Pipeline.pag in
          used := (Some cname, engine) :: !used;
          let queries = queries_of pl in
          let r = Client.run engine queries in
          Format.printf "%-9s %a (%d queries, %d steps)@." cname Client.pp_tally r.Client.tally
            (List.length queries) r.Client.steps)
        clients;
      let module Devirtopt = Pts_clients.Devirtopt in
      let dv = Devirtopt.run ~conf ~engine:engine_name pl in
      Printf.printf "devirtopt: %d/%d virtual sites monomorphized (%d beyond CHA) with %s\n"
        (List.length dv.Devirtopt.dv_rewrites)
        dv.Devirtopt.dv_virtual_sites
        (Devirtopt.analysis_rewrites dv)
        engine_name;
      List.iter
        (fun rw -> Format.printf "  rewrote %a@." Devirtopt.pp_rewrite rw)
        dv.Devirtopt.dv_rewrites;
      if metrics then print_metrics (List.rev !used))

let dot_cmd lang file bench what out =
  with_pipeline ?lang file bench (fun pl ->
      let src =
        match what with
        | `Pag -> Dot.pag pl.Pipeline.pag
        | `Callgraph -> Dot.callgraph pl.Pipeline.prog pl.Pipeline.callgraph
      in
      match out with
      | None -> print_string src
      | Some path ->
        let oc = open_out path in
        output_string oc src;
        close_out oc;
        Printf.printf "wrote %s\n" path)

(* The checker driver needs the program *text* as well as the pipeline:
   taint annotations ([// @taint-source]) live in comments the lexer
   otherwise discards. *)
let check_source file bench tflows tclean tkill tweak =
  match (file, bench) with
  | _, Some name ->
    if tflows > 0 || tclean > 0 || tkill > 0 || tweak > 0 then
      Pts_workload.Genprog.generate
        (Pts_workload.Suite.tainted ~flows:tflows ~clean:tclean ~kill:tkill ~weak:tweak name)
    else Pts_workload.Suite.source name
  | Some path, None -> (
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      Printf.eprintf "error: cannot read %s: %s\n" path msg;
      exit 2)
  | None, None ->
    Printf.eprintf "error: either FILE or --bench NAME is required\n";
    exit 2

let check_cmd lang file bench tflows tclean tkill tweak checker_names engine_name budget jobs
    fail_on report_json metrics =
  let module Check = Pts_clients.Check in
  let module Diag = Pts_clients.Diag in
  let source = check_source file bench tflows tclean tkill tweak in
  (* benches are always MiniJava; for files --lang wins over the extension *)
  let lang = match bench with Some _ -> Loc.Mjava | None -> lang_of lang file in
  let pl =
    match Pipeline.of_source ~lang source with
    | pl -> pl
    | exception Frontend.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  let spec = Pts_taint.Spec.of_source ~lang source in
  let available = Pts_taint.Registry.all ~taint:spec () in
  let checkers =
    match List.concat checker_names with
    | [] -> available
    | names ->
      List.map
        (fun n ->
          match Pts_taint.Registry.find available n with
          | Some ck -> ck
          | None ->
            Printf.eprintf "error: unknown checker %s (have: %s)\n" n
              (String.concat ", " (List.map String.lowercase_ascii (Pts_taint.Registry.names ())));
            exit 2)
        names
  in
  let conf = Engine.conf ~budget_limit:budget () in
  let opts =
    {
      Check.o_engine = engine_name;
      o_conf = conf;
      o_jobs = jobs;
      o_base = None;
    }
  in
  let report = Check.run ~opts ~checkers pl in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "ptsto check: %d finding(s) from %s"
           (List.length report.Check.r_diags)
           (String.concat "," (List.map (fun ck -> ck.Check.ck_name) checkers)))
      [
        ("severity", Table.Left);
        ("checker", Table.Left);
        ("location", Table.Left);
        ("message", Table.Left);
      ]
  in
  List.iter
    (fun d ->
      Table.add_row t
        [
          Diag.severity_to_string d.Diag.d_severity;
          d.Diag.d_checker;
          Diag.location d;
          d.Diag.d_message;
        ])
    report.Check.r_diags;
  Table.print t;
  List.iter
    (fun d ->
      if d.Diag.d_witness <> [] then begin
        Printf.printf "\nwitness for %s (%s):\n" (Diag.location d) d.Diag.d_message;
        List.iter (fun l -> Printf.printf "  %s\n" l) d.Diag.d_witness
      end)
    report.Check.r_diags;
  Printf.printf "\n%d point(s), %d unique node(s), %d dedup hit(s), %d cheap diag(s), %.3fs\n"
    report.Check.r_points report.Check.r_unique_nodes report.Check.r_dedup_hits
    report.Check.r_cheap report.Check.r_seconds;
  if metrics then begin
    let open Trace.Json in
    print_endline
      (to_string
         (Obj
            [
              ("schema", String "ptsto.check-metrics/3");
              ("engine", String engine_name);
              ("jobs", Int jobs);
              ("points", Int report.Check.r_points);
              ("unique_nodes", Int report.Check.r_unique_nodes);
              ("dedup_hits", Int report.Check.r_dedup_hits);
              ("cheap_diags", Int report.Check.r_cheap);
              ("findings", Int (List.length report.Check.r_diags));
              ("seconds", Float report.Check.r_seconds);
              ( "counters",
                Obj (List.map (fun (k, v) -> (k, Int v)) (Pts_util.Stats.to_list report.Check.r_stats))
              );
            ]))
  end;
  if report_json then print_endline (Trace.Json.to_string (Check.report_json report));
  let fail =
    match fail_on with
    | `Never -> false
    | `Sev s ->
      List.exists (fun d -> Diag.severity_geq d.Diag.d_severity s) report.Check.r_diags
  in
  exit (if fail then 1 else 0)

(* Analysis-as-a-service: load and freeze one PAG, then answer
   newline-delimited JSON requests forever. Responses are the only thing
   written to stdout (the banner goes to stderr), so
   [printf ... | ptsto serve --bench jack] is scriptable as-is. *)
let serve_cmd lang file bench budget max_budget jobs base_capacity queue_capacity max_cost
    pipeline socket trace =
  let module Daemon = Pts_serve.Daemon in
  let source = check_source file bench 0 0 0 0 in
  let lang = match bench with Some _ -> Loc.Mjava | None -> lang_of lang file in
  let pl =
    match Pipeline.of_source ~lang source with
    | pl -> pl
    | exception Frontend.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  let spec = Pts_taint.Spec.of_source ~lang source in
  let checkers = Pts_taint.Registry.all ~taint:spec () in
  with_trace trace (fun sink ->
      Trace.flush_on_signals ();
      let config =
        {
          Daemon.c_jobs = jobs;
          c_budget = budget;
          c_max_budget = max_budget;
          c_base_capacity = base_capacity;
          c_queue_capacity = queue_capacity;
          c_max_cost = max_cost;
          c_pipeline = pipeline;
        }
      in
      let d = Daemon.create ~config ~trace:sink ~checkers pl in
      let o, v, g = Pag.touched_counts pl.Pipeline.pag in
      Printf.eprintf "ptsto serve: PAG frozen (%d objects, %d locals, %d globals), %s\n%!" o v g
        (match socket with
        | Some path -> Printf.sprintf "listening on %s" path
        | None -> "reading requests from stdin");
      match socket with
      | Some path -> Daemon.serve_socket d path
      | None -> Daemon.serve_channel d stdin stdout)

(* Incremental editing: seeded edit bursts against live engines, each
   burst checked for verdict- and report-equality against a from-scratch
   rebuild. Exit status reflects the equivalence checks, so CI can gate
   on it directly. *)
let edit_cmd bench bursts edits seed report_jobs json =
  let open Pts_workload.Editlab in
  let progress = if json then fun _ -> () else fun s -> Printf.printf "%s\n%!" s in
  let r = run ~report_jobs ~progress ~bench ~bursts ~edits_per_burst:edits ~seed () in
  let dropped = List.fold_left (fun a b -> a + b.b_stats.Incr.i_dropped) 0 r.r_bursts in
  let retained = List.fold_left (fun a b -> a + b.b_stats.Incr.i_retained) 0 r.r_bursts in
  if json then begin
    let open Trace.Json in
    let row b =
      Obj
        [
          ("burst", Int b.b_index);
          ("edits", Int b.b_edits);
          ("inserted", Int b.b_stats.Incr.i_inserted);
          ("deleted", Int b.b_stats.Incr.i_deleted);
          ("dirty", Int b.b_stats.Incr.i_dirty);
          ("oracle_invalidated", Int b.b_stats.Incr.i_oracle_invalidated);
          ("dropped", Int b.b_stats.Incr.i_dropped);
          ("retained", Int b.b_stats.Incr.i_retained);
          ("incr_seconds", Float b.b_incr_seconds);
          ("rebuild_seconds", Float b.b_rebuild_seconds);
          ("hash_equal", Bool b.b_hash_equal);
          ("verdicts_equal", Bool b.b_verdicts_equal);
          ("reports_equal", Bool b.b_reports_equal);
        ]
    in
    print_endline
      (to_string
         (Obj
            [
              ("schema", String "ptsto.edit/1");
              ("bench", String r.r_bench);
              ("queries", Int r.r_queries);
              ("engine_confs", Int r.r_engine_confs);
              ("report_runs", Int r.r_report_runs);
              ("dropped", Int dropped);
              ("retained", Int retained);
              ("ok", Bool r.r_ok);
              ("bursts", List (List.map row r.r_bursts));
            ]))
  end
  else
    Printf.printf
      "%s: %d bursts, %d queries, %d engine confs, %d report runs/burst; dropped %d retained %d; \
       %s\n"
      r.r_bench (List.length r.r_bursts) r.r_queries r.r_engine_confs r.r_report_runs dropped
      retained
      (if r.r_ok then "all equivalence checks passed" else "EQUIVALENCE FAILURE");
  exit (if r.r_ok then 0 else 1)

let gen_cmd bench out =
  let src = Pts_workload.Suite.source bench in
  match out with
  | None -> print_string src
  | Some path ->
    let oc = open_out path in
    output_string oc src;
    close_out oc;
    Printf.printf "wrote %s (%d lines, config %s)\n" path
      (List.length (String.split_on_char '\n' src))
      (Pts_workload.Genprog.describe (Pts_workload.Suite.config bench))

(* ------------------------------- wiring ----------------------------- *)

let stats_t =
  Cmd.v (Cmd.info "stats" ~doc:"PAG and call-graph statistics")
    Term.(const stats_cmd $ lang_arg $ file_arg $ bench_arg)

let ir_t = Cmd.v (Cmd.info "ir" ~doc:"Dump the lowered IR") Term.(const ir_cmd $ lang_arg $ file_arg $ bench_arg)

let query_t =
  let meth =
    Arg.(required & opt (some string) None & info [ "method"; "m" ] ~docv:"M" ~doc:"Method, e.g. Main.main.")
  in
  let var = Arg.(required & opt (some string) None & info [ "var"; "v" ] ~docv:"V" ~doc:"Variable name.") in
  Cmd.v (Cmd.info "query" ~doc:"Answer one points-to query")
    Term.(
      const query_cmd $ lang_arg $ file_arg $ bench_arg $ meth $ var $ engine_arg $ budget_arg
      $ trace_arg $ metrics_arg)

let client_t =
  let client =
    Arg.(
      value
      & opt (enum (List.map (fun (k, _) -> (k, k)) clients)) "safecast"
      & info [ "client"; "c" ] ~docv:"CLIENT" ~doc:"Client (safecast|nullderef|factorym|devirt).")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Persist the dynsum summary tier across runs (load before, save after), at any \
             $(b,--jobs).")
  in
  let jobs =
    jobs_arg
      ~doc:
        "Answer the query batch on $(docv) worker domains over the shared frozen PAG."
  in
  let vjson =
    Arg.(
      value & flag
      & info [ "verdicts-json" ]
          ~doc:
            "Print the canonical verdicts object as one JSON line (the same encoder the serve \
             daemon embeds in query responses, so the two are byte-comparable).")
  in
  Cmd.v (Cmd.info "client" ~doc:"Run a client's query set")
    Term.(
      const client_cmd $ lang_arg $ file_arg $ bench_arg $ client $ engine_arg $ budget_arg
      $ cache $ trace_arg $ metrics_arg $ vjson $ jobs)

let compare_t =
  Cmd.v (Cmd.info "compare" ~doc:"All engines on all clients")
    Term.(const compare_cmd $ lang_arg $ file_arg $ bench_arg $ budget_arg $ trace_arg $ metrics_arg)

let gen_t =
  let bench =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun n -> (n, n)) Pts_workload.Suite.names))) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark name.")
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.") in
  Cmd.v (Cmd.info "gen" ~doc:"Emit a generated benchmark program") Term.(const gen_cmd $ bench $ out)

let edit_t =
  let bench =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) Pts_workload.Suite.names))) None
      & info [ "bench" ] ~docv:"NAME" ~doc:"Benchmark to edit.")
  in
  let bursts =
    Arg.(value & opt int 3 & info [ "bursts" ] ~docv:"N" ~doc:"Number of edit bursts to apply.")
  in
  let edits =
    Arg.(value & opt int 8 & info [ "edits" ] ~docv:"N" ~doc:"Edits drawn per burst.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Edit-script PRNG seed.") in
  let report_jobs =
    Arg.(
      value & opt (list int) [ 1; 2; 4 ]
      & info [ "report-jobs" ] ~docv:"JOBS"
          ~doc:
            "Comma-separated Parsolve job counts for the report byte-identity matrix (default \
             1,2,4).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one machine-readable JSON line instead of text.")
  in
  Cmd.v
    (Cmd.info "edit"
       ~doc:
         "Apply seeded edit bursts incrementally and verify verdict- and report-equality against \
          a from-scratch rebuild")
    Term.(const edit_cmd $ bench $ bursts $ edits $ seed $ report_jobs $ json)

let alias_t =
  let meth =
    Arg.(required & opt (some string) None & info [ "method"; "m" ] ~docv:"M" ~doc:"Method, e.g. Main.main.")
  in
  let var1 = Arg.(required & opt (some string) None & info [ "x" ] ~docv:"X" ~doc:"First variable.") in
  let var2 = Arg.(required & opt (some string) None & info [ "y" ] ~docv:"Y" ~doc:"Second variable.") in
  Cmd.v (Cmd.info "alias" ~doc:"May two variables alias?")
    Term.(
      const alias_cmd $ lang_arg $ file_arg $ bench_arg $ meth $ var1 $ var2 $ engine_arg $ budget_arg)

let why_t =
  let meth =
    Arg.(required & opt (some string) None & info [ "method"; "m" ] ~docv:"M" ~doc:"Method, e.g. Main.main.")
  in
  let var = Arg.(required & opt (some string) None & info [ "var"; "v" ] ~docv:"V" ~doc:"Variable name.") in
  let site = Arg.(required & opt (some int) None & info [ "site"; "s" ] ~docv:"N" ~doc:"Allocation site id.") in
  Cmd.v (Cmd.info "why" ~doc:"Explain why a variable points to a site")
    Term.(const why_cmd $ lang_arg $ file_arg $ bench_arg $ meth $ var $ site)

let check_t =
  let checker =
    Arg.(
      value & opt_all (list string) []
      & info [ "checker"; "c" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated checker names to run (repeatable). Default: all of safecast, \
             nullderef, factorym, devirt, deadcode, taint.")
  in
  let taint_flows =
    Arg.(
      value & opt int 0
      & info [ "taint-flows" ] ~docv:"N"
          ~doc:"With $(b,--bench): seed $(docv) known source->sink taint flows into the program.")
  in
  let taint_clean =
    Arg.(
      value & opt int 0
      & info [ "taint-clean" ] ~docv:"N"
          ~doc:"With $(b,--bench): seed $(docv) known-clean taint look-alikes.")
  in
  let taint_kill =
    Arg.(
      value & opt int 0
      & info [ "taint-kill" ] ~docv:"N"
          ~doc:
            "With $(b,--bench): seed $(docv) overwrite-kill taint shapes — the secret is \
             unconditionally overwritten before the sink, so only a strong-update engine \
             ($(b,--engine supa)) proves them clean.")
  in
  let taint_weak =
    Arg.(
      value & opt int 0
      & info [ "taint-weak" ] ~docv:"N"
          ~doc:
            "With $(b,--bench): seed $(docv) weak-update control shapes — conditional, \
             aliased or loop-carried overwrites that every sound engine must still flag.")
  in
  let jobs = jobs_arg ~doc:"Answer the checker query batch on $(docv) worker domains." in
  let fail_on =
    Arg.(
      value
      & opt
          (enum
             [
               ("error", `Sev Pts_clients.Diag.Error);
               ("warning", `Sev Pts_clients.Diag.Warning);
               ("info", `Sev Pts_clients.Diag.Info);
               ("never", `Never);
             ])
          (`Sev Pts_clients.Diag.Error)
      & info [ "fail-on" ] ~docv:"SEVERITY"
          ~doc:
            "Exit non-zero when any finding has at least this severity \
             (error|warning|info|never). Default: error.")
  in
  let report_json =
    Arg.(
      value & flag
      & info [ "report-json" ]
          ~doc:
            "Print the machine-readable report as one JSON line (engine-independent: \
             byte-identical across engines and job counts).")
  in
  Cmd.v (Cmd.info "check" ~doc:"Run the demand-driven checkers and report diagnostics")
    Term.(
      const check_cmd $ lang_arg $ file_arg $ bench_arg $ taint_flows $ taint_clean $ taint_kill
      $ taint_weak $ checker $ engine_arg $ budget_arg $ jobs $ fail_on $ report_json
      $ metrics_arg)

let serve_t =
  let jobs = jobs_arg ~doc:"Answer each request's query batch on $(docv) worker domains." in
  let max_budget =
    Arg.(
      value & opt int 0
      & info [ "max-budget" ] ~docv:"N"
          ~doc:
            "Reject requests asking for a per-query budget above $(docv) with a structured \
             $(b,budget_too_large) error (0 = no ceiling).")
  in
  let base_capacity =
    Arg.(
      value & opt int 4096
      & info [ "base-capacity" ] ~docv:"N"
          ~doc:
            "Bound the cross-request summary tier to $(docv) entries, evicting with a \
             second-chance clock (0 = unbounded).")
  in
  let queue_capacity =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Bound the admission queue to $(docv) pending requests; excess requests are rejected \
             with $(b,overloaded) (0 = unbounded).")
  in
  let max_cost =
    Arg.(
      value & opt int 0
      & info [ "max-cost" ] ~docv:"N"
          ~doc:
            "Reject requests whose cost exceeds $(docv) with $(b,oversized) (0 = off). A \
             request's cost is the summed Andersen points-to set sizes of its unique query roots.")
  in
  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"N"
          ~doc:
            "Read up to $(docv) requests before draining the admission queue in per-client \
             fair-share order; responses carry the request $(b,id) for matching.")
  in
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv) instead of stdin/stdout.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run as a long-lived daemon: freeze one PAG, answer newline-delimited JSON requests \
          (query/check/edit/stats/shutdown) with a persistent cross-request summary tier")
    Term.(
      const serve_cmd $ lang_arg $ file_arg $ bench_arg $ budget_arg $ max_budget $ jobs
      $ base_capacity $ queue_capacity $ max_cost $ pipeline $ socket $ trace_arg)

let run_t =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile, run every client with one engine, and apply the Devirtopt rewrite")
    Term.(
      const run_cmd $ lang_arg $ file_arg $ bench_arg $ engine_arg $ budget_arg
      $ metrics_arg)

let dot_t =
  let what =
    Arg.(
      value
      & opt (enum [ ("pag", `Pag); ("callgraph", `Callgraph) ]) `Pag
      & info [ "graph"; "g" ] ~docv:"WHAT" ~doc:"Which graph (pag|callgraph).")
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.") in
  Cmd.v (Cmd.info "dot" ~doc:"Export the PAG or call graph as Graphviz DOT")
    Term.(const dot_cmd $ lang_arg $ file_arg $ bench_arg $ what $ out)

let () =
  let doc = "demand-driven summary-based points-to analysis (DYNSUM reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "ptsto" ~version:"1.0.0" ~doc)
          [
            run_t; stats_t; ir_t; query_t; client_t; check_t; serve_t; compare_t; edit_t; gen_t;
            alias_t; why_t; dot_t;
          ]))
