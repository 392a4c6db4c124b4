(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) on the nine synthetic benchmarks, plus the ablations
   called out in DESIGN.md and a bechamel microbenchmark section.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table4  -- one artefact (table1 table2
                                            table3 table4 figure4 figure5
                                            ablation devirt minifun scale
                                            parallel prune taint incr
                                            micro kernel, plus *_smoke
                                            variants)

   Wall-clock numbers are machine-dependent; the harness therefore also
   reports deterministic step counts (PAG edge traversals), and all
   speedups/normalisations are computed on steps. *)

module Table = Pts_util.Table
module Stats = Pts_util.Stats
module Hstack = Pts_util.Hstack
module Suite = Pts_workload.Suite
module Client = Pts_clients.Client
module Pipeline = Pts_clients.Pipeline

let clients : (string * (Pipeline.t -> Client.query list)) list =
  [
    ("SafeCast", Pts_clients.Safecast.queries);
    ("NullDeref", Pts_clients.Nullderef.queries);
    ("FactoryM", Pts_clients.Factorym.queries);
  ]

(* STASUM's offline enumeration runs with a bounded stack space so that it
   terminates with an exact (untruncated) summary count; see EXPERIMENTS.md. *)
let stasum_conf = Engine.conf ~max_field_depth:4 ~overflow:Engine.Widen ()

let fresh_engines pl = Pipeline.engines pl

(* Machine-readable metrics: artefacts accumulate rows while printing
   their human tables, then emit one BENCH_<artefact>.json line each — the
   blob a CI trend tracker or plotting script consumes. *)
module Bm = struct
  module Json = Trace.Json

  let rows : (string, Json.t list ref) Hashtbl.t = Hashtbl.create 8

  let add artefact fields =
    let r =
      match Hashtbl.find_opt rows artefact with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add rows artefact r;
        r
    in
    r := Json.Obj fields :: !r

  let flush ?note artefact =
    match Hashtbl.find_opt rows artefact with
    | None -> ()
    | Some r ->
      Printf.printf "BENCH_%s.json %s\n%!" artefact
        (Json.to_string
           (Json.Obj
              ([ ("schema", Json.String "ptsto.bench/1"); ("artefact", Json.String artefact) ]
              @ (match note with None -> [] | Some n -> [ ("note", Json.String n) ])
              @ [ ("rows", Json.List (List.rev !r)) ])));
      Hashtbl.remove rows artefact

  let run_fields (r : Client.run_result) =
    [
      ("seconds", Json.Float r.Client.seconds);
      ("steps", Json.Int r.Client.steps);
      ("proved", Json.Int r.Client.tally.Client.proved);
      ("refuted", Json.Int r.Client.tally.Client.refuted);
      ("unknown", Json.Int r.Client.tally.Client.unknown);
      ("summaries", Json.Int r.Client.summaries_after);
    ]

  (* Every per-configuration artefact row opens with the same identity
     prefix (bench, then client/engine/jobs when they vary). Build it in
     one place so targets can't drift on key names. *)
  let row artefact ~bench ?client ?engine ?jobs fields =
    add artefact
      (("bench", Json.String bench)
       ::
       ((match client with None -> [] | Some c -> [ ("client", Json.String c) ])
       @ (match engine with None -> [] | Some e -> [ ("engine", Json.String e) ])
       @ (match jobs with None -> [] | Some j -> [ ("jobs", Json.Int j) ])
       @ fields))
end

(* Shared wall-clock discipline for every timed target: an optional
   untimed warm-up run (heap size, page cache — the first measured
   configuration must not pay the process cold start), [Gc.compact]
   before each sample when taking more than one (late configurations
   otherwise run against a heap full of earlier configurations'
   garbage), and min-of-N (answers and steps are deterministic; only
   the clock is noisy). *)
module Timing = struct
  let warm run = ignore (run ())

  (* [sample ~repeat ~wall run] returns the fastest run and its wall
     time. [wall] projects the measurement out of [run]'s result, so
     targets whose runner already reports seconds (Parsolve, Client,
     Check) reuse that clock instead of wrapping a second one. *)
  let sample ?(repeat = 1) ~wall run =
    let run1 () =
      if repeat > 1 then Gc.compact ();
      run ()
    in
    let best = ref (run1 ()) in
    let best_wall = ref (wall !best) in
    for _ = 2 to repeat do
      let r = run1 () in
      let w = wall r in
      if w < !best_wall then begin
        best := r;
        best_wall := w
      end
    done;
    (!best, !best_wall)
end

let hr title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

(* --------------------------------------------------------------------- *)
(* Table 1: DYNSUM's traversal on the paper's Figure 2 example            *)
(* --------------------------------------------------------------------- *)

let table1 () =
  hr "Table 1 — DYNSUM worklist traversal for queries s1, s2 (Figure 2)";
  let pl = Pts_workload.Figure2.pipeline () in
  let pag = pl.Pipeline.pag in
  let prog = pl.Pipeline.prog in
  let conf = Engine.default_conf in
  let budget = Budget.create ~limit:conf.Engine.budget_limit in
  let cache = Hashtbl.create 64 in
  let pp_stack f =
    let syms = Hstack.to_list f in
    if syms = [] then "[]"
    else
      "["
      ^ String.concat ";"
          (List.map
             (fun sym ->
               let fld = Fstack.sym_field sym in
               let name = (Types.field_info prog.Ir.ctable fld).Types.fld_name in
               if Fstack.sym_is_load sym then name else name ^ "!")
             syms)
      ^ "]"
  in
  let step = ref 0 in
  let run qname node =
    Printf.printf "\n%s:\n%-4s %-28s %-14s %-3s %s\n" qname "step" "node" "field-stack" "dir" "reuse";
    step := 0;
    Budget.start_query budget;
    let summarise u f s =
      incr step;
      let key = (u, Hstack.id f, Ppta.state_to_int s) in
      let reused = Hashtbl.mem cache key in
      if Pag.has_local_edges pag u then
        Printf.printf "%-4d %-28s %-14s %-3s %s\n" !step (Pag.node_name pag u) (pp_stack f)
          (match s with Ppta.S1 -> "S1" | Ppta.S2 -> "S2")
          (if reused then "reused" else "computed");
      if not (Pag.has_local_edges pag u) then { Ppta.objs = []; tuples = [ (u, f, s) ] }
      else
        match Hashtbl.find_opt cache key with
        | Some summary -> summary
        | None ->
          let summary = Ppta.compute pag conf budget u f s in
          Hashtbl.add cache key summary;
          summary
    in
    let expand u f s =
      let summary = summarise u f s in
      {
        Kernel.lr_objs = summary.Ppta.objs;
        lr_match_objs = [];
        lr_frontier = summary.Ppta.tuples;
        lr_jumps = [];
      }
    in
    let results = Kernel.solve pag budget expand node Hstack.empty in
    Printf.printf "result: %s\n"
      (String.concat ", " (List.map (Ir.alloc_name prog) (Query.sites results)))
  in
  run "query s1" (Pts_workload.Figure2.s1 pl);
  let summaries_after_s1 = Hashtbl.length cache in
  run "query s2" (Pts_workload.Figure2.s2 pl);
  Printf.printf
    "\nsummaries after s1: %d; after s2: %d (s2 reuses s1's container summaries, as in Table 1)\n"
    summaries_after_s1 (Hashtbl.length cache)

(* --------------------------------------------------------------------- *)
(* Table 2: qualitative comparison                                        *)
(* --------------------------------------------------------------------- *)

let table2 () =
  hr "Table 2 — Strengths and weaknesses of the four demand-driven analyses";
  let t =
    Table.create
      [
        ("Algorithm", Table.Left);
        ("Full Precision", Table.Left);
        ("Memorization", Table.Left);
        ("Reuse", Table.Left);
        ("On-Demandness", Table.Left);
      ]
  in
  Table.add_row t [ "NOREFINE"; "Yes"; "No"; "No"; "Yes" ];
  Table.add_row t [ "REFINEPTS"; "Yes"; "Dynamic (within queries)"; "Context Dependent"; "Yes" ];
  Table.add_row t [ "STASUM"; "No"; "Static (across queries)"; "Context Independent"; "Partly" ];
  Table.add_row t [ "DYNSUM"; "Yes"; "Dynamic (across queries)"; "Context Independent"; "Yes" ];
  Table.print t

(* --------------------------------------------------------------------- *)
(* Table 3: benchmark statistics                                          *)
(* --------------------------------------------------------------------- *)

let table3 () =
  hr "Table 3 — Benchmark statistics";
  let t =
    Table.create
      ([
         ("Benchmark", Table.Left);
         ("#Methods", Table.Right);
         ("O", Table.Right);
         ("V", Table.Right);
         ("G", Table.Right);
         ("new", Table.Right);
         ("assign", Table.Right);
         ("load", Table.Right);
         ("store", Table.Right);
         ("entry", Table.Right);
         ("exit", Table.Right);
         ("aglobal", Table.Right);
         ("Locality", Table.Right);
       ]
      @ List.map (fun (n, _) -> (n, Table.Right)) clients)
  in
  List.iter
    (fun name ->
      let pl = Suite.pipeline name in
      let pag = pl.Pipeline.pag in
      let c = Pag.edge_counts pag in
      let o, v, g = Pag.touched_counts pag in
      let n_methods = List.length (Pts_andersen.Solver.reachable_methods pl.Pipeline.solver) in
      let qcounts = List.map (fun (_, qs) -> string_of_int (List.length (qs pl))) clients in
      Table.add_row t
        ([
           name;
           string_of_int n_methods;
           string_of_int o;
           string_of_int v;
           string_of_int g;
           string_of_int c.Pag.n_new;
           string_of_int c.Pag.n_assign;
           string_of_int c.Pag.n_load;
           string_of_int c.Pag.n_store;
           string_of_int c.Pag.n_entry;
           string_of_int c.Pag.n_exit;
           string_of_int c.Pag.n_assign_global;
           Table.fmt_pct (Pag.locality pag);
         ]
        @ qcounts))
    Suite.names;
  Table.print t;
  Printf.printf
    "(paper: locality 80-90%% with avrora/batik/luindex/xalan in the lower band;\n\
    \ query counts NullDeref > SafeCast > FactoryM)\n"

(* --------------------------------------------------------------------- *)
(* Table 4: analysis cost of the three engines per client                 *)
(* --------------------------------------------------------------------- *)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let table4 () =
  hr "Table 4 — Analysis cost (seconds | kilo-steps) of NOREFINE / REFINEPTS / DYNSUM";
  List.iter
    (fun (cname, queries_of) ->
      Printf.printf "\nClient %s:\n" cname;
      let t =
        Table.create
          [
            ("Benchmark", Table.Left);
            ("NOREFINE", Table.Right);
            ("REFINEPTS", Table.Right);
            ("DYNSUM", Table.Right);
            ("speedup vs REFINEPTS", Table.Right);
            ("speedup vs NOREFINE", Table.Right);
            ("unknown N/R/D", Table.Right);
          ]
      in
      let sp_refine = ref [] in
      let sp_norefine = ref [] in
      List.iter
        (fun bname ->
          let pl = Suite.pipeline bname in
          let queries = queries_of pl in
          let results =
            List.map (fun e -> (e, Client.run e queries)) (fresh_engines pl)
          in
          List.iter
            (fun ((e : Engine.engine), r) ->
              Bm.add "table4"
                (("client", Bm.Json.String cname)
                 :: ("bench", Bm.Json.String bname)
                 :: ("engine", Bm.Json.String e.Engine.name)
                 :: Bm.run_fields r))
            results;
          let cell (_, (r : Client.run_result)) =
            Printf.sprintf "%.3fs | %.1fk" r.Client.seconds (float_of_int r.Client.steps /. 1000.)
          in
          let steps i = float_of_int (snd (List.nth results i)).Client.steps in
          let unk i = (snd (List.nth results i)).Client.tally.Client.unknown in
          let dyn = steps 2 in
          let vs_ref = steps 1 /. Float.max dyn 1.0 in
          let vs_nor = steps 0 /. Float.max dyn 1.0 in
          sp_refine := vs_ref :: !sp_refine;
          sp_norefine := vs_nor :: !sp_norefine;
          Table.add_row t
            [
              bname;
              cell (List.nth results 0);
              cell (List.nth results 1);
              cell (List.nth results 2);
              Table.fmt_speedup vs_ref;
              Table.fmt_speedup vs_nor;
              Printf.sprintf "%d/%d/%d" (unk 0) (unk 1) (unk 2);
            ])
        Suite.names;
      Table.add_sep t;
      Table.add_row t
        [
          "geomean";
          "";
          "";
          "";
          Table.fmt_speedup (geomean !sp_refine);
          Table.fmt_speedup (geomean !sp_norefine);
          "";
        ];
      Table.print t)
    clients;
  Printf.printf
    "(paper: DYNSUM over REFINEPTS averages 1.95x / 2.28x / 1.37x for\n\
    \ SafeCast / NullDeref / FactoryM; speedups computed on steps)\n";
  Bm.flush "table4"

(* --------------------------------------------------------------------- *)
(* Figure 4: per-batch DYNSUM cost normalised to REFINEPTS                *)
(* --------------------------------------------------------------------- *)

let spark values =
  let blocks = [| " "; "_"; "."; ":"; "-"; "="; "*"; "#" |] in
  let hi = List.fold_left Float.max 0.0 values in
  if hi <= 0.0 then String.concat "" (List.map (fun _ -> " ") values)
  else
    String.concat ""
      (List.map
         (fun v ->
           let i = int_of_float (v /. hi *. 7.0) in
           blocks.(max 0 (min 7 i)))
         values)

let figure4 () =
  hr "Figure 4 — Per-batch DYNSUM steps normalised to REFINEPTS (10 batches)";
  List.iter
    (fun (cname, queries_of) ->
      Printf.printf "\n(%s)\n" cname;
      let t =
        Table.create
          ([ ("Benchmark", Table.Left) ]
          @ List.init 10 (fun i -> (Printf.sprintf "b%d" (i + 1), Table.Right))
          @ [ ("trend", Table.Left) ])
      in
      List.iter
        (fun bname ->
          let pl = Suite.pipeline bname in
          let queries = queries_of pl in
          let engines = fresh_engines pl in
          let refinepts = List.nth engines 1 in
          let dynsum = List.nth engines 2 in
          let rb = Client.run_batches refinepts queries ~batches:10 in
          let db = Client.run_batches dynsum queries ~batches:10 in
          let normalised =
            List.map2
              (fun (d : Client.run_result) (r : Client.run_result) ->
                float_of_int d.Client.steps /. Float.max 1.0 (float_of_int r.Client.steps))
              db rb
          in
          Bm.add "figure4"
            [
              ("client", Bm.Json.String cname);
              ("bench", Bm.Json.String bname);
              ( "refinepts_steps",
                Bm.Json.List
                  (List.map (fun (r : Client.run_result) -> Bm.Json.Int r.Client.steps) rb) );
              ( "dynsum_steps",
                Bm.Json.List
                  (List.map (fun (r : Client.run_result) -> Bm.Json.Int r.Client.steps) db) );
              ("normalised", Bm.Json.List (List.map (fun v -> Bm.Json.Float v) normalised));
            ];
          Table.add_row t
            ((bname :: List.map (fun v -> Printf.sprintf "%.2f" v) normalised)
            @ [ spark normalised ]))
        Suite.figure45_names;
      Table.print t)
    clients;
  Printf.printf
    "(paper: the ratio falls with the batch index as DYNSUM's summaries accumulate)\n";
  Bm.flush "figure4"

(* --------------------------------------------------------------------- *)
(* Figure 5: cumulative DYNSUM summaries normalised to STASUM             *)
(* --------------------------------------------------------------------- *)

let figure5 () =
  hr "Figure 5 — Cumulative DYNSUM summaries vs STASUM's static enumeration";
  List.iter
    (fun (cname, queries_of) ->
      Printf.printf "\n(%s)\n" cname;
      let t =
        Table.create
          ([ ("Benchmark", Table.Left) ]
          @ List.init 10 (fun i -> (Printf.sprintf "b%d" (i + 1), Table.Right))
          @ [ ("STASUM", Table.Right); ("pts %", Table.Right) ])
      in
      let finals = ref [] in
      List.iter
        (fun bname ->
          let pl = Suite.pipeline bname in
          let pag = pl.Pipeline.pag in
          let queries = queries_of pl in
          let stasum = Stasum.create ~conf:stasum_conf ~max_summaries:2_000_000 pag in
          let dynsum = Dynsum.create pag in
          let engine = Engine.dynsum dynsum in
          let batches = Client.run_batches engine queries ~batches:10 in
          let total = float_of_int (Stasum.summary_count stasum) in
          let series =
            List.map
              (fun (r : Client.run_result) ->
                float_of_int r.Client.summaries_after /. Float.max 1.0 total)
              batches
          in
          let final = List.nth series (List.length series - 1) in
          finals := final :: !finals;
          let point_pct =
            float_of_int (Dynsum.summary_points dynsum)
            /. Float.max 1.0 (float_of_int (Stasum.summary_points stasum))
          in
          Bm.add "figure5"
            [
              ("client", Bm.Json.String cname);
              ("bench", Bm.Json.String bname);
              ( "dynsum_summaries",
                Bm.Json.List
                  (List.map
                     (fun (r : Client.run_result) -> Bm.Json.Int r.Client.summaries_after)
                     batches) );
              ("stasum_summaries", Bm.Json.Int (Stasum.summary_count stasum));
              ("stasum_truncated", Bm.Json.Bool (Stasum.truncated stasum));
              ("final_ratio", Bm.Json.Float final);
              ("points_ratio", Bm.Json.Float point_pct);
            ];
          Table.add_row t
            ((bname :: List.map (fun v -> Table.fmt_pct v) series)
            @ [
                Printf.sprintf "%d%s" (Stasum.summary_count stasum)
                  (if Stasum.truncated stasum then "+" else "");
                Table.fmt_pct point_pct;
              ]))
        Suite.figure45_names;
      Table.print t;
      Printf.printf "average final ratio: %s\n" (Table.fmt_pct (geomean !finals)))
    clients;
  Printf.printf
    "(paper: DYNSUM ends at 41.3%% / 47.7%% / 37.3%% of STASUM on average; our\n\
    \ STASUM enumerates a finer field-stack-indexed space, so the raw ratio is\n\
    \ smaller — the per-program-point ratio 'pts %%' is the comparable unit)\n";
  Bm.flush "figure5"

(* --------------------------------------------------------------------- *)
(* Ablations                                                              *)
(* --------------------------------------------------------------------- *)

let ablation_cache () =
  Printf.printf "\n-- Ablation: DYNSUM summary reuse on/off (NullDeref) --\n";
  let t =
    Table.create
      [
        ("Benchmark", Table.Left);
        ("reuse on (ksteps)", Table.Right);
        ("reuse off (ksteps)", Table.Right);
        ("benefit", Table.Right);
      ]
  in
  List.iter
    (fun bname ->
      let pl = Suite.pipeline bname in
      let queries = Pts_clients.Nullderef.queries pl in
      let on = Dynsum.create pl.Pipeline.pag in
      let r_on = Client.run (Engine.dynsum on) queries in
      let off = Dynsum.create pl.Pipeline.pag in
      let steps_off =
        List.fold_left
          (fun acc q ->
            Dynsum.clear_cache off;
            let before = Budget.total_steps (Dynsum.budget off) in
            ignore (Dynsum.points_to off q.Client.q_node);
            acc + (Budget.total_steps (Dynsum.budget off) - before))
          0 queries
      in
      Table.add_row t
        [
          bname;
          string_of_int (r_on.Client.steps / 1000);
          string_of_int (steps_off / 1000);
          Table.fmt_speedup (float_of_int steps_off /. Float.max 1.0 (float_of_int r_on.Client.steps));
        ])
    [ "jack"; "jython"; "soot-c" ];
  Table.print t

let ablation_budget () =
  Printf.printf "\n-- Ablation: budget sensitivity (soot-c, NullDeref) --\n";
  let pl = Suite.pipeline "soot-c" in
  let queries = Pts_clients.Nullderef.queries pl in
  let t =
    Table.create
      [
        ("Budget", Table.Right);
        ("NOREFINE unknown", Table.Right);
        ("REFINEPTS unknown", Table.Right);
        ("DYNSUM unknown", Table.Right);
      ]
  in
  List.iter
    (fun limit ->
      let conf = Engine.conf ~budget_limit:limit () in
      let unknowns =
        List.map
          (fun e -> (Client.run e queries).Client.tally.Client.unknown)
          (Pipeline.engines ~conf pl)
      in
      Table.add_row t
        (string_of_int limit :: List.map string_of_int unknowns))
    [ 1_000; 5_000; 25_000; 75_000 ];
  Table.print t

let ablation_field_limits () =
  Printf.printf "\n-- Ablation: field-stack repeat limit (jython, SafeCast) --\n";
  let pl = Suite.pipeline "jython" in
  let queries = Pts_clients.Safecast.queries pl in
  let t =
    Table.create
      [
        ("max repeat", Table.Right);
        ("proved", Table.Right);
        ("refuted", Table.Right);
        ("unknown", Table.Right);
        ("ksteps", Table.Right);
      ]
  in
  List.iter
    (fun repeat ->
      let conf = Engine.conf ~max_field_repeat:repeat () in
      let dynsum = Dynsum.create ~conf pl.Pipeline.pag in
      let r = Client.run (Engine.dynsum dynsum) queries in
      Table.add_row t
        [
          string_of_int repeat;
          string_of_int r.Client.tally.Client.proved;
          string_of_int r.Client.tally.Client.refuted;
          string_of_int r.Client.tally.Client.unknown;
          string_of_int (r.Client.steps / 1000);
        ])
    [ 1; 2; 3 ];
  Table.print t

let ablation_locality () =
  Printf.printf "\n-- Ablation: locality vs DYNSUM benefit (generated, NullDeref) --\n";
  let t =
    Table.create
      [
        ("churn", Table.Right);
        ("locality", Table.Right);
        ("NOREFINE ksteps", Table.Right);
        ("DYNSUM ksteps", Table.Right);
        ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun churn ->
      let cfg = { (Suite.config "jack") with Pts_workload.Genprog.churn; name = "jack-churn" } in
      let pl = Pipeline.of_source (Pts_workload.Genprog.generate cfg) in
      let queries = Pts_clients.Nullderef.queries pl in
      let engines = fresh_engines pl in
      let nr = Client.run (List.nth engines 0) queries in
      let dy = Client.run (List.nth engines 2) queries in
      Table.add_row t
        [
          string_of_int churn;
          Table.fmt_pct (Pag.locality pl.Pipeline.pag);
          string_of_int (nr.Client.steps / 1000);
          string_of_int (dy.Client.steps / 1000);
          Table.fmt_speedup
            (float_of_int nr.Client.steps /. Float.max 1.0 (float_of_int dy.Client.steps));
        ])
    [ 0; 5; 10; 20; 30 ];
  Table.print t

let ablation_callgraph () =
  Printf.printf "\n-- Ablation: CHA vs on-the-fly (Andersen) call-graph construction --\n";
  let t =
    Table.create
      [
        ("Benchmark", Table.Left);
        ("cg edges otf", Table.Right);
        ("cg edges CHA", Table.Right);
        ("entry edges otf", Table.Right);
        ("entry edges CHA", Table.Right);
        ("SafeCast proved otf", Table.Right);
        ("SafeCast proved CHA", Table.Right);
      ]
  in
  List.iter
    (fun bname ->
      let pl = Suite.pipeline bname in
      let prog = pl.Pipeline.prog in
      let cha_pag, cha_cg = Cha.build prog in
      let run pag =
        let dynsum = Dynsum.create pag in
        let r = Client.run (Engine.dynsum dynsum) (Pts_clients.Safecast.queries pl) in
        r.Client.tally.Client.proved
      in
      Table.add_row t
        [
          bname;
          string_of_int (Callgraph.edge_count pl.Pipeline.callgraph);
          string_of_int (Callgraph.edge_count cha_cg);
          string_of_int (Pag.edge_counts pl.Pipeline.pag).Pag.n_entry;
          string_of_int (Pag.edge_counts cha_pag).Pag.n_entry;
          string_of_int (run pl.Pipeline.pag);
          string_of_int (run cha_pag);
        ])
    [ "jack"; "jython" ];
  Table.print t;
  Printf.printf
    "(CHA's eager hierarchy-based dispatch inflates the graph and can cost the\n\
    \ clients precision; the paper's setup constructs the call graph on the fly)\n"

(* Not in the paper: the canonical JIT client, per the paper's JIT/IDE
   motivation. Only CHA-polymorphic sites are queried, so every "proved"
   is a devirtualisation the context-sensitive analysis wins over CHA. *)
let devirt () =
  hr "Extension — Devirt client (virtual-call devirtualisation for JITs)";
  let t =
    Table.create
      [
        ("Benchmark", Table.Left);
        ("queries", Table.Right);
        ("devirtualised", Table.Right);
        ("polymorphic", Table.Right);
        ("unknown", Table.Right);
        ("DYNSUM ksteps", Table.Right);
        ("speedup vs NOREFINE", Table.Right);
      ]
  in
  List.iter
    (fun bname ->
      let pl = Suite.pipeline bname in
      let queries = Pts_clients.Devirt.queries pl in
      let engines = fresh_engines pl in
      let nr = Client.run (List.nth engines 0) queries in
      let dy = Client.run (List.nth engines 2) queries in
      Bm.add "devirt"
        [
          ("bench", Bm.Json.String bname);
          ("queries", Bm.Json.Int (List.length queries));
          ("devirtualised", Bm.Json.Int dy.Client.tally.Client.proved);
          ("polymorphic", Bm.Json.Int dy.Client.tally.Client.refuted);
          ("unknown", Bm.Json.Int dy.Client.tally.Client.unknown);
          ("dynsum_steps", Bm.Json.Int dy.Client.steps);
          ("norefine_steps", Bm.Json.Int nr.Client.steps);
        ];
      Table.add_row t
        [
          bname;
          string_of_int (List.length queries);
          string_of_int dy.Client.tally.Client.proved;
          string_of_int dy.Client.tally.Client.refuted;
          string_of_int dy.Client.tally.Client.unknown;
          Printf.sprintf "%.1f" (float_of_int dy.Client.steps /. 1000.);
          Table.fmt_speedup
            (float_of_int nr.Client.steps /. Float.max 1.0 (float_of_int dy.Client.steps));
        ])
    Suite.names;
  Table.print t;
  Bm.flush "devirt"

(* --------------------------------------------------------------------- *)
(* Extension — MiniFun frontend parity + Devirtopt rewriting              *)
(* --------------------------------------------------------------------- *)

(* The committed matched-pair suite: both surface languages lower through
   the same [Ir.Emit] contract, so each pair's points-to verdicts must
   agree between the MiniJava and MiniFun halves on every engine. On top,
   the Devirtopt pass must monomorphize at least one beyond-CHA closure
   call per half, and the rewritten program must re-analyze to the same
   per-query verdicts — the acceptance row this artefact commits as
   BENCH_minifun.json. *)
let minifun () =
  hr "Extension — MiniFun frontend parity and analysis-guided devirtualization";
  let module Genpair = Pts_workload.Genpair in
  let module Devirtopt = Pts_clients.Devirtopt in
  let conf = Engine.conf ~budget_limit:2_000_000 () in
  let mono_pred prog ts =
    let nonnull =
      List.filter (fun s -> not prog.Ir.allocs.(s).Ir.alloc_is_null) (Query.sites ts)
    in
    List.length nonnull <= 1
  in
  let verdicts pl engine_name (queries : Genpair.query_spec list) =
    let prog = pl.Pipeline.prog in
    List.map
      (fun q ->
        let node = Pipeline.find_local_any pl ~var:q.Genpair.q_var in
        let engine = Engine.create ~conf engine_name pl.Pipeline.pag in
        Client.verdict_of (mono_pred prog)
          (engine.Engine.points_to ~satisfy:(mono_pred prog) node))
      queries
  in
  let t =
    Table.create
      [
        ("Pair", Table.Left);
        ("lang", Table.Left);
        ("engine", Table.Left);
        ("virtual sites", Table.Right);
        ("rewritten", Table.Right);
        ("beyond CHA", Table.Right);
        ("verdicts after rewrite", Table.Right);
        ("iters", Table.Right);
        ("PAG edges/iter", Table.Right);
      ]
  in
  List.iter
    (fun pname ->
      let pair = Suite.pair pname in
      List.iter
        (fun lang ->
          let pl = Suite.pair_pipeline pname lang in
          List.iter
            (fun engine_name ->
              (* Iterate the pass to its fixed point: the headline columns
                 keep reporting the first pass, and the per-state
                 reachable/edge lists record how much each re-analysis of
                 the rewritten program shrank. *)
              let fp = Devirtopt.run_fixpoint ~conf ~engine:engine_name pl in
              let dv = fp.Devirtopt.fp_first in
              let before = verdicts pl engine_name pair.Genpair.p_queries in
              let after = verdicts fp.Devirtopt.fp_pipeline engine_name pair.Genpair.p_queries in
              let unchanged = before = after in
              let ints l = Bm.Json.List (List.map (fun n -> Bm.Json.Int n) l) in
              Bm.add "minifun"
                [
                  ("pair", Bm.Json.String pname);
                  ("lang", Bm.Json.String (Loc.lang_name lang));
                  ("engine", Bm.Json.String engine_name);
                  ("virtual_sites", Bm.Json.Int dv.Devirtopt.dv_virtual_sites);
                  ("rewrites", Bm.Json.Int (List.length dv.Devirtopt.dv_rewrites));
                  ("beyond_cha", Bm.Json.Int (Devirtopt.analysis_rewrites dv));
                  ("verdicts_unchanged", Bm.Json.Bool unchanged);
                  ("fix_iterations", Bm.Json.Int fp.Devirtopt.fp_iterations);
                  ("fix_converged", Bm.Json.Bool fp.Devirtopt.fp_converged);
                  ("fix_reachable", ints fp.Devirtopt.fp_reachable);
                  ("fix_pag_edges", ints fp.Devirtopt.fp_pag_edges);
                ];
              Table.add_row t
                [
                  pname;
                  Loc.lang_name lang;
                  engine_name;
                  string_of_int dv.Devirtopt.dv_virtual_sites;
                  string_of_int (List.length dv.Devirtopt.dv_rewrites);
                  string_of_int (Devirtopt.analysis_rewrites dv);
                  (if unchanged then "unchanged" else "CHANGED");
                  Printf.sprintf "%d%s" fp.Devirtopt.fp_iterations
                    (if fp.Devirtopt.fp_converged then "" else "+");
                  String.concat ">" (List.map string_of_int fp.Devirtopt.fp_pag_edges);
                ])
            (Engine.names ()))
        [ Loc.Mjava; Loc.Minifun ])
    Suite.pair_names;
  Table.print t;
  Bm.flush "minifun"

let ablation () =
  hr "Ablations (design choices called out in DESIGN.md)";
  ablation_cache ();
  ablation_budget ();
  ablation_field_limits ();
  ablation_locality ();
  ablation_callgraph ()

(* --------------------------------------------------------------------- *)
(* Scalability: the same measurement at growing program sizes             *)
(* --------------------------------------------------------------------- *)

let scale () =
  hr "Extension — scalability (soot-c scaled x1/x2/x4, NullDeref)";
  let t =
    Table.create
      [
        ("Program", Table.Left);
        ("edges", Table.Right);
        ("Andersen s", Table.Right);
        ("units", Table.Right);
        ("propagations", Table.Right);
        ("queries", Table.Right);
        ("NOREFINE s", Table.Right);
        ("DYNSUM s", Table.Right);
        ("DYNSUM ksteps", Table.Right);
        ("speedup", Table.Right);
        ("summaries", Table.Right);
      ]
  in
  List.iter
    (fun k ->
      let cfg = Suite.scaled "soot-c" k in
      let prog = Frontend.compile (Pts_workload.Genprog.generate cfg) in
      (* the whole-program set-up every one-shot request pays: PAG build,
         Andersen fixpoint, oracle hand-off and freeze *)
      let (pl, _), andersen_s =
        Timing.sample ~repeat:3 ~wall:snd (fun () -> Stats.time (fun () -> Pipeline.of_program prog))
      in
      let solver_stats = Pts_andersen.Solver.stats pl.Pipeline.solver in
      let propagations = Stats.get solver_stats "propagations" in
      let units = Pag.node_count pl.Pipeline.pag + Stats.get solver_stats "cells" in
      let queries = Pts_clients.Nullderef.queries pl in
      let engines = fresh_engines pl in
      let nr = Client.run (List.nth engines 0) queries in
      let dy = Client.run (List.nth engines 2) queries in
      let c = Pag.edge_counts pl.Pipeline.pag in
      let edges =
        c.Pag.n_new + c.Pag.n_assign + c.Pag.n_load + c.Pag.n_store + c.Pag.n_entry + c.Pag.n_exit
        + c.Pag.n_assign_global
      in
      Bm.add "scale"
        ([
           ("program", Bm.Json.String cfg.Pts_workload.Genprog.name);
           ("edges", Bm.Json.Int edges);
           ("andersen_seconds", Bm.Json.Float andersen_s);
           ("andersen_propagations", Bm.Json.Int propagations);
           ("andersen_units", Bm.Json.Int units);
           ("queries", Bm.Json.Int (List.length queries));
           ("norefine_steps", Bm.Json.Int nr.Client.steps);
           ("norefine_seconds", Bm.Json.Float nr.Client.seconds);
         ]
        @ List.map (fun (k, v) -> ("dynsum_" ^ k, v)) (Bm.run_fields dy));
      Table.add_row t
        [
          cfg.Pts_workload.Genprog.name;
          string_of_int edges;
          Printf.sprintf "%.2f" andersen_s;
          string_of_int units;
          string_of_int propagations;
          string_of_int (List.length queries);
          Printf.sprintf "%.2f" nr.Client.seconds;
          Printf.sprintf "%.2f" dy.Client.seconds;
          Printf.sprintf "%.0f" (float_of_int dy.Client.steps /. 1000.);
          Table.fmt_speedup
            (float_of_int nr.Client.steps /. Float.max 1.0 (float_of_int dy.Client.steps));
          string_of_int dy.Client.summaries_after;
        ])
    [ 1; 2; 4 ];
  Table.print t;
  Printf.printf
    "(DYNSUM's advantage should hold or grow with program size: more shared
    \ library traversal to amortise)
";
  Bm.flush
    ~note:
      (Printf.sprintf "andersen_seconds: min of 3 Pipeline.of_program runs, %d cores"
         (Domain.recommended_domain_count ()))
    "scale"

(* --------------------------------------------------------------------- *)
(* Parallel batch evaluation (Parsolve)                                   *)
(* --------------------------------------------------------------------- *)

(* The budget is generous enough that every query resolves: a resolved
   demand query is the exact CFL answer and therefore independent of how
   the batch was sharded or how warm each domain's summary cache was, so
   the cross-jobs set-equality check below is deterministic. (Under a
   tight budget, cache warmth changes which queries exceed — that is the
   per-query budget semantics, not a parallelism artefact.) *)
let parallel_conf = Engine.conf ~budget_limit:2_000_000 ()

(* Parsolve across job counts. [repeat] re-runs each configuration and
   keeps the minimum wall time (answers and steps are deterministic; only
   the clock is noisy) — the smoke variant uses it so its jobs=1 row is a
   scheduling measurement, not an OS-jitter one. *)
let run_parallel_bench ~artefact ~bench ~jobs_list ~rounds ?(repeat = 1) () =
  hr
    (Printf.sprintf "Extension — parallel batch evaluation (%s, NullDeref, dynsum, %d round%s)"
       bench rounds (if rounds = 1 then "" else "s"));
  let pl = Suite.pipeline bench in
  let queries = Pts_clients.Nullderef.queries pl in
  let qarr = Array.of_list (List.map (fun q -> Parsolve.query q.Client.q_node) queries) in
  (* when repeating for a min-wall measurement, also warm the process
     with one untimed run so the first measured configuration isn't the
     one paying the cold start *)
  if repeat > 1 then
    Timing.warm (fun () ->
        Parsolve.run ~conf:parallel_conf ~jobs:1 ~engine:"dynsum" pl.Pipeline.pag qarr);
  let t =
    Table.create
      [
        ("jobs", Table.Right);
        ("wall s", Table.Right);
        ("ksteps", Table.Right);
        ("steals", Table.Right);
        ("imbalance", Table.Right);
        ("derived", Table.Right);
        ("unique", Table.Right);
        ("speedup vs jobs=1", Table.Right);
        ("set-equal", Table.Left);
      ]
  in
  (* the first configuration is the baseline for both set-equality and
     speedup *)
  let baseline = ref None in
  List.iter
    (fun jobs ->
      let r, wall =
        Timing.sample ~repeat
          ~wall:(fun r -> r.Parsolve.wall_seconds)
          (fun () ->
            Parsolve.run ~conf:parallel_conf ~jobs ~rounds ~engine:"dynsum" pl.Pipeline.pag qarr)
      in
      let steps = List.fold_left (fun a d -> a + d.Parsolve.dr_steps) 0 r.Parsolve.reports in
      (* per-domain total steps across rounds; imbalance = max/mean —
         1.0 is a perfectly level load *)
      let by_domain = Array.make jobs 0 in
      List.iter
        (fun d -> by_domain.(d.Parsolve.dr_domain) <- by_domain.(d.Parsolve.dr_domain) + d.Parsolve.dr_steps)
        r.Parsolve.reports;
      let imbalance =
        let mean = float_of_int steps /. float_of_int jobs in
        if mean <= 0.0 then 1.0
        else float_of_int (Array.fold_left max 0 by_domain) /. mean
      in
      let equal, speedup =
        match !baseline with
        | None ->
          baseline := Some (r, wall);
          (true, 1.0)
        | Some (r0, w0) ->
          let eq = ref true in
          Array.iteri
            (fun i o -> if not (Query.equal_outcome o r0.Parsolve.outcomes.(i)) then eq := false)
            r.Parsolve.outcomes;
          (!eq, w0 /. Float.max 1e-9 wall)
      in
      Bm.row artefact ~bench ~engine:"dynsum" ~jobs
        [
          ("rounds", Bm.Json.Int r.Parsolve.rounds);
          ("queries", Bm.Json.Int (Array.length qarr));
          ("wall_seconds", Bm.Json.Float wall);
          ("steps", Bm.Json.Int steps);
          ("steals", Bm.Json.Int r.Parsolve.steals);
          ("queue_imbalance", Bm.Json.Float imbalance);
          ("merged_summaries", Bm.Json.Int r.Parsolve.merged_summaries);
          ("unique_summaries", Bm.Json.Int r.Parsolve.unique_summaries);
          ("base_hits", Bm.Json.Int r.Parsolve.base_hits);
          ("base_misses", Bm.Json.Int r.Parsolve.base_misses);
          ("base_evictions", Bm.Json.Int r.Parsolve.base_evictions);
          ("base_size", Bm.Json.Int r.Parsolve.base_size);
          ("speedup_vs_jobs1", Bm.Json.Float speedup);
          ("set_equal_vs_first", Bm.Json.Bool equal);
          ("recommended_domains", Bm.Json.Int (Domain.recommended_domain_count ()));
          ( "domains",
            Bm.Json.List
              (List.map
                 (fun d ->
                   Bm.Json.Obj
                     [
                       ("round", Bm.Json.Int d.Parsolve.dr_round);
                       ("domain", Bm.Json.Int d.Parsolve.dr_domain);
                       ("queries", Bm.Json.Int d.Parsolve.dr_queries);
                       ("steps", Bm.Json.Int d.Parsolve.dr_steps);
                       ("seconds", Bm.Json.Float d.Parsolve.dr_seconds);
                       ("summaries", Bm.Json.Int d.Parsolve.dr_summaries);
                       ("steals", Bm.Json.Int d.Parsolve.dr_steals);
                     ])
                 r.Parsolve.reports) );
        ];
      Table.add_row t
        [
          string_of_int jobs;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.1f" (float_of_int steps /. 1000.);
          string_of_int r.Parsolve.steals;
          Printf.sprintf "%.2f" imbalance;
          string_of_int r.Parsolve.merged_summaries;
          string_of_int r.Parsolve.unique_summaries;
          Table.fmt_speedup speedup;
          (if equal then "yes" else "NO");
        ])
    jobs_list;
  Table.print t;
  Printf.printf
    "(wall-clock speedup tracks the machine's core count — %d domain(s) recommended here;\n\
    \ 'derived' counts every summary computed in some domain, 'unique' the distinct keys:\n\
    \ their gap is the cross-domain recomputation the shared base tier eliminates)\n"
    (Domain.recommended_domain_count ());
  Bm.flush artefact
    ~note:
      ("recommended_domains is Domain.recommended_domain_count() of the measuring host — 1 in the \
        CI container, so wall-clock speedup is unattainable there and the steps/imbalance columns \
        are the machine-independent signal. jobs is the requested domain count, independent of \
        the host. rounds=" ^ string_of_int rounds)

let parallel () =
  run_parallel_bench ~artefact:"parallel" ~bench:Suite.largest ~jobs_list:[ 1; 2; 4 ] ~rounds:2 ()

let parallel_smoke () =
  run_parallel_bench ~artefact:"parallel_smoke" ~bench:"jack" ~jobs_list:[ 1; 2 ] ~rounds:1
    ~repeat:5 ()

(* --------------------------------------------------------------------- *)
(* Andersen-guided pruning (--prune)                                      *)
(* --------------------------------------------------------------------- *)

(* Two measurements per benchmark: the NullDeref query load under every
   engine with the oracle pruner on vs off (same verdicts, fewer steps —
   the reduction concentrates in REFINEPTS, whose field-based match edges
   are the one place the demand side is coarser than Andersen), and an
   alias-pair load where disjoint oracle rows answer Must_not without
   issuing the two underlying points-to queries at all. *)
let run_prune_bench ~artefact ~benches ~engines:engine_names ?(repeat = 1) () =
  hr
    (Printf.sprintf "Extension — Andersen-guided pruning (%s; NullDeref + alias pairs)"
       (String.concat ", " benches));
  let conf_for ename ~prune =
    (* STASUM's offline enumeration needs the bounded stack space (see
       [stasum_conf]); the flag must not change the offline table. *)
    if ename = "stasum" then Engine.conf ~max_field_depth:4 ~overflow:Engine.Widen ~prune ()
    else Engine.conf ~prune ()
  in
  let t =
    Table.create
      [
        ("Benchmark", Table.Left);
        ("Engine", Table.Left);
        ("steps off (k)", Table.Right);
        ("steps on (k)", Table.Right);
        ("ratio", Table.Right);
        ("pruned", Table.Right);
        ("checks", Table.Right);
        ("verdicts", Table.Left);
      ]
  in
  List.iter
    (fun bname ->
      let pl = Suite.pipeline bname in
      let queries = Pts_clients.Nullderef.queries pl in
      List.iter
        (fun ename ->
          (* a fresh engine per sample keeps the step counts cold-cache
             deterministic; min-of-N only de-noises the clock *)
          let run_with prune =
            fst
              (Timing.sample ~repeat
                 ~wall:(fun (r, _) -> r.Client.seconds)
                 (fun () ->
                   let e = Engine.create ~conf:(conf_for ename ~prune) ename pl.Pipeline.pag in
                   (Client.run e queries, e)))
          in
          let r_off, _ = run_with false in
          let r_on, e_on = run_with true in
          let pruned = Stats.get e_on.Engine.stats "pruned_states" in
          let checks = Stats.get e_on.Engine.stats "prune_checks" in
          let ratio = float_of_int r_on.Client.steps /. Float.max 1.0 (float_of_int r_off.Client.steps) in
          let same = r_on.Client.tally = r_off.Client.tally in
          Bm.row artefact ~bench:bname ~client:"NullDeref" ~engine:ename
            [
              ("steps_off", Bm.Json.Int r_off.Client.steps);
              ("steps_on", Bm.Json.Int r_on.Client.steps);
              ("step_ratio", Bm.Json.Float ratio);
              ("pruned_states", Bm.Json.Int pruned);
              ("prune_checks", Bm.Json.Int checks);
              ("seconds_off", Bm.Json.Float r_off.Client.seconds);
              ("seconds_on", Bm.Json.Float r_on.Client.seconds);
              ("verdicts_equal", Bm.Json.Bool same);
            ];
          Table.add_row t
            [
              bname;
              ename;
              Printf.sprintf "%.1f" (float_of_int r_off.Client.steps /. 1000.);
              Printf.sprintf "%.1f" (float_of_int r_on.Client.steps /. 1000.);
              Printf.sprintf "%.3f" ratio;
              string_of_int pruned;
              string_of_int checks;
              (if same then "equal" else "DIFFER");
            ])
        engine_names)
    benches;
  Table.print t;
  (* Alias pairs: the whole-query fast path. *)
  let ta =
    Table.create
      [
        ("Benchmark", Table.Left);
        ("pairs", Table.Right);
        ("must-not", Table.Right);
        ("fast-path", Table.Right);
        ("steps off (k)", Table.Right);
        ("steps on (k)", Table.Right);
        ("ratio", Table.Right);
        ("verdicts", Table.Left);
      ]
  in
  List.iter
    (fun bname ->
      let pl = Suite.pipeline bname in
      let pag = pl.Pipeline.pag in
      let nodes =
        List.filteri (fun i _ -> i < 24)
          (List.map (fun q -> q.Client.q_node) (Pts_clients.Nullderef.queries pl))
      in
      let pairs =
        List.concat_map
          (fun x -> List.filter_map (fun y -> if x < y then Some (x, y) else None) nodes)
          nodes
      in
      let run_with pag_opt =
        let e = Engine.create ~conf:(Engine.conf ()) "dynsum" pag in
        let verdicts = List.map (fun (x, y) -> Alias.may_alias ?pag:pag_opt e x y) pairs in
        (verdicts, Budget.total_steps e.Engine.budget)
      in
      let v_off, steps_off = run_with None in
      let v_on, steps_on = run_with (Some pag) in
      let fastpath =
        List.length (List.filter (fun (x, y) -> Pag.oracle_disjoint pag x y) pairs)
      in
      let mustnot = List.length (List.filter (fun v -> v = Alias.Must_not) v_on) in
      let same = v_on = v_off in
      let ratio = float_of_int steps_on /. Float.max 1.0 (float_of_int steps_off) in
      Bm.row artefact ~bench:bname ~client:"alias" ~engine:"dynsum"
        [
          ("pairs", Bm.Json.Int (List.length pairs));
          ("must_not", Bm.Json.Int mustnot);
          ("fastpath_pairs", Bm.Json.Int fastpath);
          ("steps_off", Bm.Json.Int steps_off);
          ("steps_on", Bm.Json.Int steps_on);
          ("step_ratio", Bm.Json.Float ratio);
          ("verdicts_equal", Bm.Json.Bool same);
        ];
      Table.add_row ta
        [
          bname;
          string_of_int (List.length pairs);
          string_of_int mustnot;
          string_of_int fastpath;
          Printf.sprintf "%.1f" (float_of_int steps_off /. 1000.);
          Printf.sprintf "%.1f" (float_of_int steps_on /. 1000.);
          Printf.sprintf "%.3f" ratio;
          (if same then "equal" else "DIFFER");
        ])
    benches;
  Table.print ta;
  Printf.printf
    "(pruning never changes a verdict; steps drop where REFINEPTS match edges\n\
    \ or disjoint alias rows let the oracle cut work, and stay flat for the\n\
    \ exact engines — on a PAG built by Andersen itself, every state an exact\n\
    \ traversal reaches is Andersen-consistent)\n";
  Bm.flush artefact

let prune () =
  run_prune_bench ~artefact:"prune" ~benches:Suite.names
    ~engines:[ "norefine"; "refinepts"; "dynsum"; "stasum" ] ()

let prune_smoke () =
  run_prune_bench ~artefact:"prune_smoke" ~benches:[ "jython" ]
    ~engines:[ "refinepts"; "dynsum" ] ()

(* --------------------------------------------------------------------- *)
(* Taint checker: precision/recall on seeded defects, per engine          *)
(* --------------------------------------------------------------------- *)

(* Each benchmark is re-generated with known source->sink flows,
   known-clean look-alikes, overwrite-kill shapes and weak-update controls
   (ground truth from Genprog.generate_with_truth), then the taint checker
   runs under every demand engine. Within the flow-insensitive family
   (norefine/refinepts/dynsum/stasum) reports are byte-equal by the
   central equivalence property; supa is its own flow-sensitive family —
   it drops the kill-shape false positives the others must report, which
   is the measured precision gap. Recall stays 1.00 everywhere: the
   weak-update controls pin that supa only strong-updates where it is
   sound. *)
let run_taint_bench ~artefact ~benches ~flows ~clean ?(kill = 0) ?(weak = 0) ~jobs_list
    ?(repeat = 1) () =
  hr
    (Printf.sprintf
       "Extension — taint checker precision/recall (%d flows / %d clean / %d kill / %d weak per \
        bench)"
       flows clean kill weak);
  let family engine = if String.equal engine "supa" then "flow-sensitive" else "flow-insensitive" in
  let module Check = Pts_clients.Check in
  let module Diag = Pts_clients.Diag in
  let t =
    Table.create
      [
        ("Program", Table.Left);
        ("engine", Table.Left);
        ("jobs", Table.Right);
        ("tp", Table.Right);
        ("fp", Table.Right);
        ("fn", Table.Right);
        ("prec", Table.Right);
        ("recall", Table.Right);
        ("flow hit/miss", Table.Right);
        ("oracle skips", Table.Right);
        ("dedup", Table.Right);
        ("s", Table.Right);
        ("report=", Table.Left);
      ]
  in
  List.iter
    (fun bname ->
      let cfg = Suite.tainted ~flows ~clean ~kill ~weak bname in
      let source, labels = Pts_workload.Genprog.generate_with_truth cfg in
      let pl = Pipeline.of_source source in
      let spec = Pts_taint.Spec.of_source source in
      let checkers = [ Pts_taint.Checker.checker ~spec () ] in
      (* one reference report per verdict family — supa legitimately
         differs from the flow-insensitive engines on kill shapes *)
      let references : (string, string) Hashtbl.t = Hashtbl.create 2 in
      List.iter
        (fun (engine, jobs) ->
          let opts = { Check.default_opts with Check.o_engine = engine; o_jobs = jobs } in
          let report, _ =
            Timing.sample ~repeat
              ~wall:(fun r -> r.Check.r_seconds)
              (fun () -> Check.run ~opts ~checkers pl)
          in
          let json = Bm.Json.to_string (Check.report_json report) in
          let equal =
            match Hashtbl.find_opt references (family engine) with
            | None ->
              Hashtbl.add references (family engine) json;
              true
            | Some j0 -> String.equal j0 json
          in
          let flagged m =
            List.exists (fun d -> String.equal d.Diag.d_method m) report.Check.r_diags
          in
          let tp =
            List.length
              (List.filter
                 (fun l -> l.Pts_workload.Genprog.tl_tainted && flagged l.Pts_workload.Genprog.tl_method)
                 labels)
          in
          let fn =
            List.length
              (List.filter
                 (fun l ->
                   l.Pts_workload.Genprog.tl_tainted
                   && not (flagged l.Pts_workload.Genprog.tl_method))
                 labels)
          in
          (* False positives: any finding outside a tainted-labelled
             method (covers both flagged clean variants and spurious
             findings elsewhere in the program). *)
          let fp =
            List.length
              (List.filter
                 (fun d ->
                   not
                     (List.exists
                        (fun l ->
                          l.Pts_workload.Genprog.tl_tainted
                          && String.equal l.Pts_workload.Genprog.tl_method d.Diag.d_method)
                        labels))
                 report.Check.r_diags)
          in
          let ratio a b = if a + b = 0 then 1.0 else float_of_int a /. float_of_int (a + b) in
          let precision = ratio tp fp and recall = ratio tp fn in
          let c name = Stats.get report.Check.r_stats name in
          Bm.row artefact ~bench:bname ~engine ~jobs
            [
              ("flows", Bm.Json.Int flows);
              ("clean", Bm.Json.Int clean);
              ("kill", Bm.Json.Int kill);
              ("weak", Bm.Json.Int weak);
              ("family", Bm.Json.String (family engine));
              ("sources", Bm.Json.Int (c "taint_sources"));
              ("sinks", Bm.Json.Int (c "taint_sinks"));
              ("findings", Bm.Json.Int (List.length report.Check.r_diags));
              ("tp", Bm.Json.Int tp);
              ("fp", Bm.Json.Int fp);
              ("fn", Bm.Json.Int fn);
              ("precision", Bm.Json.Float precision);
              ("recall", Bm.Json.Float recall);
              ("flow_summary_hits", Bm.Json.Int (c "taint_summary_hits"));
              ("flow_summary_misses", Bm.Json.Int (c "taint_summary_misses"));
              ("oracle_skips", Bm.Json.Int (c "taint_oracle_skips"));
              ("flow_skips", Bm.Json.Int (c "taint_flow_skips"));
              ("summary_hits", Bm.Json.Int (c "summary_hits"));
              ("summary_misses", Bm.Json.Int (c "summary_misses"));
              ("dedup_hits", Bm.Json.Int report.Check.r_dedup_hits);
              ("witness_found", Bm.Json.Int (c "witness_found"));
              ("witness_missing", Bm.Json.Int (c "witness_missing"));
              ("seconds", Bm.Json.Float report.Check.r_seconds);
              ("report_equal_in_family", Bm.Json.Bool equal);
            ];
          Table.add_row t
            [
              bname;
              engine;
              string_of_int jobs;
              string_of_int tp;
              string_of_int fp;
              string_of_int fn;
              Printf.sprintf "%.2f" precision;
              Printf.sprintf "%.2f" recall;
              Printf.sprintf "%d/%d" (c "taint_summary_hits") (c "taint_summary_misses");
              string_of_int (c "taint_oracle_skips");
              string_of_int report.Check.r_dedup_hits;
              Printf.sprintf "%.3f" report.Check.r_seconds;
              (if equal then "yes" else "NO");
            ])
        (List.map (fun e -> (e, 1)) (Engine.names ())
        @ List.map (fun j -> ("dynsum", j)) (List.filter (fun j -> j > 1) jobs_list)))
    benches;
  Table.print t;
  Printf.printf
    "(recall must be 1.00 and clean variants unflagged on every engine; the report\n\
    \ JSON is byte-identical within each verdict family — the flow-insensitive\n\
    \ engines report every overwrite-kill shape as a false positive, supa none)\n";
  Bm.flush artefact

let taint () =
  run_taint_bench ~artefact:"taint" ~benches:[ "jack"; "javac"; Suite.largest ] ~flows:8 ~clean:8
    ~kill:4 ~weak:3 ~jobs_list:[ 1; 2; 4 ] ()

let taint_smoke () =
  run_taint_bench ~artefact:"taint_smoke" ~benches:[ "jack" ] ~flows:5 ~clean:5 ~kill:3 ~weak:2
    ~jobs_list:[ 1; 2 ] ()

(* --------------------------------------------------------------------- *)
(* Incremental edits vs from-scratch rebuild                              *)
(* --------------------------------------------------------------------- *)

(* Per edit-script size: apply seeded bursts through the Editlab driver
   (incremental side keeps its engines, invalidating only summaries whose
   footprints touch the dirty nodes) and compare against a full rebuild.
   The interesting numbers are the retention fraction (how much of the
   summary caches a small edit leaves standing) and the wall-clock ratio
   of incremental re-query to rebuild — plus the equivalence booleans,
   which must all be true. *)
let run_incr_bench ~artefact ~bench ~bursts ~edits_list ~seed ~report_jobs () =
  hr
    (Printf.sprintf
       "Extension — incremental edit bursts vs from-scratch rebuild (%s, %d bursts/size)" bench
       bursts);
  let t =
    Table.create
      [
        ("edits/burst", Table.Right);
        ("burst", Table.Right);
        ("dirty", Table.Right);
        ("dropped", Table.Right);
        ("retained", Table.Right);
        ("retention", Table.Right);
        ("incr s", Table.Right);
        ("rebuild s", Table.Right);
        ("ratio", Table.Right);
        ("verdicts", Table.Left);
        ("reports", Table.Left);
      ]
  in
  List.iter
    (fun edits_per_burst ->
      let r =
        Pts_workload.Editlab.run ~report_jobs ~bench ~bursts ~edits_per_burst ~seed ()
      in
      List.iter
        (fun (b : Pts_workload.Editlab.burst_report) ->
          let retention =
            let total = b.b_stats.Incr.i_dropped + b.b_stats.Incr.i_retained in
            if total = 0 then 1.0
            else float_of_int b.b_stats.Incr.i_retained /. float_of_int total
          in
          let ratio = b.b_incr_seconds /. Float.max 1e-9 b.b_rebuild_seconds in
          Bm.row artefact ~bench
            [
              ("edits_per_burst", Bm.Json.Int edits_per_burst);
              ("burst", Bm.Json.Int b.b_index);
              ("edits_applied", Bm.Json.Int b.b_edits);
              ("inserted", Bm.Json.Int b.b_stats.Incr.i_inserted);
              ("deleted", Bm.Json.Int b.b_stats.Incr.i_deleted);
              ("dirty_nodes", Bm.Json.Int b.b_stats.Incr.i_dirty);
              ("oracle_rows_invalidated", Bm.Json.Int b.b_stats.Incr.i_oracle_invalidated);
              ("summaries_dropped", Bm.Json.Int b.b_stats.Incr.i_dropped);
              ("summaries_retained", Bm.Json.Int b.b_stats.Incr.i_retained);
              ("retention_fraction", Bm.Json.Float retention);
              ("incr_seconds", Bm.Json.Float b.b_incr_seconds);
              ("rebuild_seconds", Bm.Json.Float b.b_rebuild_seconds);
              ("wall_ratio_incr_vs_rebuild", Bm.Json.Float ratio);
              ("hash_equal", Bm.Json.Bool b.b_hash_equal);
              ("verdicts_equal", Bm.Json.Bool b.b_verdicts_equal);
              ("reports_equal", Bm.Json.Bool b.b_reports_equal);
              ("queries", Bm.Json.Int r.Pts_workload.Editlab.r_queries);
              ("engine_confs", Bm.Json.Int r.Pts_workload.Editlab.r_engine_confs);
              ("report_runs", Bm.Json.Int r.Pts_workload.Editlab.r_report_runs);
            ];
          Table.add_row t
            [
              string_of_int edits_per_burst;
              string_of_int b.b_index;
              string_of_int b.b_stats.Incr.i_dirty;
              string_of_int b.b_stats.Incr.i_dropped;
              string_of_int b.b_stats.Incr.i_retained;
              Table.fmt_pct retention;
              Printf.sprintf "%.3f" b.b_incr_seconds;
              Printf.sprintf "%.3f" b.b_rebuild_seconds;
              Printf.sprintf "%.3f" ratio;
              (if b.b_verdicts_equal && b.b_hash_equal then "equal" else "DIFFER");
              (if b.b_reports_equal then "equal" else "DIFFER");
            ])
        r.Pts_workload.Editlab.r_bursts)
    edits_list;
  Table.print t;
  Printf.printf
    "(incr s = edit apply + invalidation + re-answering every query on the live engines;\n\
    \ rebuild s = recompile + Andersen + replay + fresh engines + the same queries.\n\
    \ Verdicts and check reports are byte-compared against the rebuild each burst.)\n";
  Bm.flush artefact
    ~note:
      "retention_fraction is summaries kept / (kept + dropped) across all live engine \
       configurations after each burst; wall ratio < 1 means the incremental path beat the \
       from-scratch rebuild"

let incr () =
  run_incr_bench ~artefact:"incr" ~bench:"jack" ~bursts:3 ~edits_list:[ 2; 8; 32 ] ~seed:11
    ~report_jobs:[ 1; 2; 4 ] ()

let incr_smoke () =
  run_incr_bench ~artefact:"incr_smoke" ~bench:"jack" ~bursts:2 ~edits_list:[ 4 ] ~seed:11
    ~report_jobs:[ 1; 2 ] ()

(* --------------------------------------------------------------------- *)
(* Analysis-as-a-service: the serve daemon's equivalence matrix and       *)
(* sustained-throughput measurement (BENCH_serve.json)                    *)
(* --------------------------------------------------------------------- *)

module Daemon = Pts_serve.Daemon
module Proto = Pts_serve.Proto

(* Nearest-rank percentile over per-request wall times, in milliseconds. *)
let pctl_ms lat p =
  let a = Array.of_list lat in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))) *. 1000.0

let serve_checkers bench =
  Pts_taint.Registry.all ~taint:(Pts_taint.Spec.of_source ~lang:Loc.Mjava (Suite.source bench)) ()

let serve_req ?(client_id = "bench") op =
  { Proto.rq_id = Bm.Json.Null; rq_client = client_id; rq_op = op }

let serve_query ?client_id ~engine ~prune client =
  serve_req ?client_id (Proto.Query { client; engine; prune; budget = None })

let serve_handle_timed d lat rq =
  let resp, dt = Stats.time (fun () -> Daemon.handle d rq) in
  lat := dt :: !lat;
  resp

let run_serve_equiv ~artefact ~bench () =
  hr (Printf.sprintf "serve: daemon equivalence matrix on %s" bench);
  let module Check = Pts_clients.Check in
  let checkers = serve_checkers bench in
  let mk_req = serve_req ?client_id:None in
  let query_req = serve_query ?client_id:None in
  let handle_timed = serve_handle_timed in
  let member_str name resp =
    match Bm.Json.member name resp with
    | Some j -> Bm.Json.to_string j
    | None -> Printf.sprintf "<missing %s in %s>" name (Bm.Json.to_string resp)
  in
  (* Fresh one-shot references, computed on a pipeline the daemon never
     touches: the same canonical encoders the CLI prints, answered with
     no cross-request tier. *)
  let fresh_verdicts pl ~engine ~prune client_key =
    let cname, queries_of = List.assoc client_key Daemon.clients in
    let queries = queries_of pl in
    let qarr =
      Array.of_list
        (List.map (fun q -> Parsolve.query ~satisfy:q.Client.q_pred q.Client.q_node) queries)
    in
    let r = Parsolve.run ~conf:(Engine.conf ~prune ()) ~engine pl.Pipeline.pag qarr in
    let verdicts =
      List.mapi (fun i q -> (q, Client.verdict_of q.Client.q_pred r.Parsolve.outcomes.(i))) queries
    in
    Bm.Json.to_string (Client.verdicts_json ~client:cname verdicts)
  in
  let fresh_report pl ~engine ~prune =
    let opts =
      {
        Check.o_engine = engine;
        o_conf = Engine.conf ~prune ();
        o_jobs = 1;
        o_rounds = 1;
        o_base = None;
      }
    in
    Bm.Json.to_string (Check.report_json (Check.run ~opts ~checkers pl))
  in
  (* ---- phase 1: equivalence matrix, engines x prune, before and after
     an interleaved edit burst. One daemon serves the whole matrix, so
     later cells run against whatever the earlier ones left in the
     shared tier — exactly the state a long-lived daemon accumulates. *)
  let t =
    Table.create ~title:"serve equivalence: daemon responses vs one-shot CLI (byte compare)"
      [
        ("engine", Table.Left);
        ("prune", Table.Left);
        ("epoch", Table.Right);
        ("query", Table.Left);
        ("check", Table.Left);
        ("qps", Table.Right);
        ("p99 ms", Table.Right);
      ]
  in
  let daemon = Daemon.create ~checkers (Suite.pipeline bench) in
  let reference = ref (Suite.pipeline bench) in
  let ref_incr = ref (Incr.create !reference.Pipeline.pag) in
  let all_equal = ref true in
  let matrix epoch_label =
    List.iter
      (fun engine ->
        List.iter
          (fun prune ->
            let lat = ref [] in
            let (q_eq, c_eq), wall =
              Stats.time (fun () ->
                  let q_resp = handle_timed daemon lat (query_req ~engine ~prune "safecast") in
                  let c_resp =
                    handle_timed daemon lat
                      (mk_req (Proto.Check { checkers = []; engine; prune; budget = None }))
                  in
                  ( member_str "verdicts" q_resp = fresh_verdicts !reference ~engine ~prune "safecast",
                    member_str "report" c_resp = fresh_report !reference ~engine ~prune ))
            in
            if not (q_eq && c_eq) then all_equal := false;
            let qps = 2.0 /. Float.max 1e-9 wall in
            Bm.row artefact ~bench ~engine
              [
                ("phase", Bm.Json.String "equivalence");
                ("prune", Bm.Json.Bool prune);
                ("epoch", Bm.Json.String epoch_label);
                ("requests", Bm.Json.Int 2);
                ("query_equal", Bm.Json.Bool q_eq);
                ("check_equal", Bm.Json.Bool c_eq);
                ("qps", Bm.Json.Float qps);
                ("p50_ms", Bm.Json.Float (pctl_ms !lat 0.50));
                ("p99_ms", Bm.Json.Float (pctl_ms !lat 0.99));
              ];
            Table.add_row t
              [
                engine;
                (if prune then "on" else "off");
                epoch_label;
                (if q_eq then "equal" else "DIFFER");
                (if c_eq then "equal" else "DIFFER");
                Printf.sprintf "%.0f" qps;
                Printf.sprintf "%.2f" (pctl_ms !lat 0.99);
              ])
          [ false; true ])
      (Engine.names ())
  in
  matrix "0";
  (* interleaved edit burst: the daemon applies it through Incr (dropping
     exactly the footprint-dirty tier entries); the reference pipeline
     replays the same seeded burst through its own Incr, so both sides
     answer on identical PAGs but only the daemon kept warm summaries. *)
  let edit_seed = 97 in
  let edit_resp = Daemon.handle daemon (mk_req (Proto.Edit { edits = 6; seed = edit_seed })) in
  ignore (Incr.apply !ref_incr (Pts_workload.Editscript.burst (Pts_util.Prng.create edit_seed) !reference.Pipeline.pag ~n:6));
  Printf.printf "edit burst: %s\n" (Bm.Json.to_string edit_resp);
  matrix "post-edit";
  Table.print t;
  if not !all_equal then begin
    Printf.printf "serve: EQUIVALENCE FAILURE — daemon responses differ from one-shot CLI\n";
    exit 1
  end

(* Sustained throughput under a seeded mixed workload. Client skew
   60/25/10/5 gives the tier a hot set and a long tail; the cold and
   warm rounds replay one identical request list on the same daemon, so
   their qps ratio isolates what the persistent tier buys. The sustained
   pass interleaves edit bursts, forcing targeted invalidation
   mid-stream. *)
let run_serve_tput ~artefact ~bench ~requests ~edit_every () =
  hr (Printf.sprintf "serve: sustained throughput on %s" bench);
  let mk_req = serve_req ?client_id:None in
  let handle_timed = serve_handle_timed in
  let skew = [ (60, "safecast"); (25, "nullderef"); (10, "factorym"); (5, "devirt") ] in
  let workload seed n =
    let rng = Pts_util.Prng.create seed in
    List.init n (fun i ->
        serve_query ~engine:"dynsum" ~prune:false
          ~client_id:(Printf.sprintf "c%d" (i mod 4))
          (Pts_util.Prng.weighted rng skew))
  in
  let tput =
    Table.create ~title:(Printf.sprintf "serve throughput on %s (dynsum, shared cross-request tier)" bench)
      [
        ("phase", Table.Left);
        ("requests", Table.Right);
        ("qps", Table.Right);
        ("p50 ms", Table.Right);
        ("p99 ms", Table.Right);
        ("tier hits", Table.Right);
        ("tier size", Table.Right);
        ("evictions", Table.Right);
      ]
  in
  let fresh () = Daemon.create ~checkers:(serve_checkers bench) (Suite.pipeline bench) in
  let d = fresh () in
  (* [pairs] maps each request to the daemon that answers it: the warm
     and sustained phases route everything through the long-lived [d],
     while the cold phase gives every request its own fresh daemon. *)
  let phase_row name pairs ~edits =
    let lat = ref [] in
    let edits_done = ref 0 in
    let (), wall =
      Stats.time (fun () ->
          List.iteri
            (fun i (dmn, rq) ->
              if edits && edit_every > 0 && i > 0 && i mod edit_every = 0 then begin
                edits_done := !edits_done + 1;
                ignore
                  (Daemon.handle dmn (mk_req (Proto.Edit { edits = 4; seed = 1000 + !edits_done })))
              end;
              ignore (handle_timed dmn lat rq))
            pairs)
    in
    let n = List.length pairs in
    let qps = float_of_int n /. Float.max 1e-9 wall in
    let daemons =
      List.fold_left (fun acc (dmn, _) -> if List.memq dmn acc then acc else dmn :: acc) [] pairs
    in
    let sum f = List.fold_left (fun acc dmn -> acc + f (Daemon.base dmn)) 0 daemons in
    let hits = sum Dynsum.base_hits in
    let size = sum Dynsum.base_length in
    let ev = sum Dynsum.base_evictions in
    Bm.row artefact ~bench ~engine:"dynsum"
      [
        ("phase", Bm.Json.String name);
        ("requests", Bm.Json.Int n);
        ("edit_bursts", Bm.Json.Int !edits_done);
        ("qps", Bm.Json.Float qps);
        ("p50_ms", Bm.Json.Float (pctl_ms !lat 0.50));
        ("p99_ms", Bm.Json.Float (pctl_ms !lat 0.99));
        ("base_hits", Bm.Json.Int hits);
        ("base_misses", Bm.Json.Int (sum Dynsum.base_misses));
        ("base_evictions", Bm.Json.Int ev);
        ("base_size", Bm.Json.Int size);
      ];
    Table.add_row tput
      [
        name;
        string_of_int n;
        Printf.sprintf "%.0f" qps;
        Printf.sprintf "%.2f" (pctl_ms !lat 0.50);
        Printf.sprintf "%.2f" (pctl_ms !lat 0.99);
        string_of_int hits;
        string_of_int size;
        string_of_int ev;
      ];
    qps
  in
  (* cold vs warm: one round over every distinct query request (each
     client, both prune modes). Cold answers each request on its own
     fresh daemon — the derivation cost a one-shot invocation pays,
     with no cross-request reuse (PAG load excluded, so this still
     understates cold start). Warm replays the identical round on the
     long-lived daemon after it has served the round once, so every
     answer draws on the persistent tier. The sustained pass then runs
     the mixed skewed workload with interleaved edit bursts. *)
  let round =
    List.concat_map
      (fun (key, _) ->
        [
          serve_query ~engine:"dynsum" ~prune:false key;
          serve_query ~engine:"dynsum" ~prune:true key;
        ])
      Daemon.clients
  in
  let cold_qps = phase_row "cold" (List.map (fun rq -> (fresh (), rq)) round) ~edits:false in
  List.iter (fun rq -> ignore (Daemon.handle d rq)) round;
  let warm_qps = phase_row "warm" (List.map (fun rq -> (d, rq)) round) ~edits:false in
  let _ = phase_row "sustained" (List.map (fun rq -> (d, rq)) (workload 8 (2 * requests))) ~edits:true in
  Bm.row artefact ~bench ~engine:"dynsum"
    [
      ("phase", Bm.Json.String "summary");
      ("requests", Bm.Json.Int ((2 * List.length round) + (2 * requests)));
      ("qps", Bm.Json.Float warm_qps);
      ("p50_ms", Bm.Json.Float 0.0);
      ("p99_ms", Bm.Json.Float 0.0);
      ("warm_vs_cold_qps", Bm.Json.Float (warm_qps /. Float.max 1e-9 cold_qps));
    ];
  Table.print tput;
  Printf.printf "warm/cold qps ratio on %s: %.2f (the cross-request tier's payoff)\n" bench
    (warm_qps /. Float.max 1e-9 cold_qps)

let serve_note =
  "equivalence rows byte-compare the daemon's embedded verdicts/report objects against fresh \
   one-shot runs with no cross-request tier, before and after an interleaved edit burst; \
   throughput rows answer one round over every distinct query request cold (each on its own fresh \
   daemon, as a one-shot invocation would) then replay the identical round warm on one long-lived \
   daemon, then run a sustained pass over a seeded 60/25/10/5 client-skewed workload with edit \
   bursts every few requests"

let serve () =
  run_serve_equiv ~artefact:"serve" ~bench:"jack" ();
  run_serve_tput ~artefact:"serve" ~bench:"jack" ~requests:100 ~edit_every:25 ();
  run_serve_tput ~artefact:"serve" ~bench:"soot-c" ~requests:60 ~edit_every:20 ();
  Bm.flush "serve" ~note:serve_note

let serve_smoke () =
  run_serve_equiv ~artefact:"serve_smoke" ~bench:"jack" ();
  run_serve_tput ~artefact:"serve_smoke" ~bench:"jack" ~requests:20 ~edit_every:8 ();
  Bm.flush "serve_smoke" ~note:serve_note

(* --------------------------------------------------------------------- *)
(* Bechamel microbenchmarks                                               *)
(* --------------------------------------------------------------------- *)

let micro () =
  hr "Microbenchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let pl = Suite.pipeline "jack" in
  let pag = pl.Pipeline.pag in
  let queries = Pts_clients.Safecast.queries pl in
  let q0 = (List.hd queries).Client.q_node in
  let warm_dynsum = Dynsum.create pag in
  ignore (Dynsum.points_to warm_dynsum q0);
  let tests =
    [
      Test.make ~name:"hstack push/pop" (Staged.stage (fun () ->
          let s = Hstack.push (Hstack.push Hstack.empty 1) 2 in
          ignore (Hstack.pop_exn s)));
      Test.make ~name:"ppta (Vector.get ret)" (Staged.stage (fun () ->
          let budget = Budget.unlimited () in
          ignore (Ppta.compute pag Engine.default_conf budget q0 Hstack.empty Ppta.S1)));
      Test.make ~name:"dynsum query (warm cache)" (Staged.stage (fun () ->
          ignore (Dynsum.points_to warm_dynsum q0)));
      Test.make ~name:"dynsum query (cold cache)" (Staged.stage (fun () ->
          let d = Dynsum.create pag in
          ignore (Dynsum.points_to d q0)));
      Test.make ~name:"norefine query" (Staged.stage (fun () ->
          let n = Sb.create Sb.No_refine pag in
          ignore (Sb.points_to n q0)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        ols)
    tests;
  print_newline ()

(* --------------------------------------------------------------------- *)
(* Kernel cost per step: the Table 4 batches, allocation and throughput   *)
(* --------------------------------------------------------------------- *)

(* One pass = the 27 Table 4 batches of the end-to-end benchmark's
   paper-clients workload (SafeCast, NullDeref, FactoryM on soot-c, bloat
   and jython), each through a fresh engine. Per engine: the steps of a
   pass (deterministic), the minor and promoted heap words it allocates,
   and the fastest pass's wall time over [repeat] passes after a warm-up. *)
let kernel_benches = [ "soot-c"; "bloat"; "jython" ]

let kernel () =
  hr "Kernel cost per step — Table 4 batches (soot-c, bloat, jython)";
  let batches =
    List.concat_map
      (fun bname ->
        let pl = Suite.pipeline bname in
        List.map (fun (_, queries_of) -> (pl, queries_of pl)) clients)
      kernel_benches
  in
  let pass engine () =
    List.fold_left
      (fun steps (pl, queries) ->
        let e = Engine.create engine pl.Pipeline.pag in
        steps + (Client.run e queries).Client.steps)
      0 batches
  in
  let t =
    Table.create
      [
        ("engine", Table.Left);
        ("steps/pass", Table.Right);
        ("minor Mwords/pass", Table.Right);
        ("promoted Mwords/pass", Table.Right);
        ("words/step", Table.Right);
        ("wall s", Table.Right);
        ("Msteps/s", Table.Right);
      ]
  in
  List.iter
    (fun engine ->
      Timing.warm (pass engine);
      Gc.compact ();
      let g0 = Gc.quick_stat () in
      let steps = pass engine () in
      let g1 = Gc.quick_stat () in
      let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
      let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
      let _, wall = Timing.sample ~repeat:3 ~wall:snd (fun () -> Stats.time (pass engine)) in
      let msteps = float_of_int steps /. wall /. 1e6 in
      Table.add_row t
        [
          engine;
          string_of_int steps;
          Printf.sprintf "%.1f" (minor /. 1e6);
          Printf.sprintf "%.1f" (promoted /. 1e6);
          Printf.sprintf "%.1f" (minor /. float_of_int (max 1 steps));
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.2f" msteps;
        ];
      Bm.row "kernel" ~bench:(String.concat "+" kernel_benches) ~engine
        [
          ("steps", Bm.Json.Int steps);
          ("minor_words", Bm.Json.Float minor);
          ("promoted_words", Bm.Json.Float promoted);
          ("seconds", Bm.Json.Float wall);
          ("msteps_per_s", Bm.Json.Float msteps);
        ])
    [ "norefine"; "refinepts"; "dynsum" ];
  Table.print t;
  Bm.flush "kernel"
    ~note:(Printf.sprintf "min of 3 passes after a warm-up, %d cores" (Domain.recommended_domain_count ()))

(* --------------------------------------------------------------------- *)

let () =
  let targets =
    [
      ("table1", table1);
      ("table2", table2);
      ("table3", table3);
      ("table4", table4);
      ("figure4", figure4);
      ("figure5", figure5);
      ("ablation", ablation);
      ("devirt", devirt);
      ("minifun", minifun);
      ("scale", scale);
      ("parallel", parallel);
      ("parallel_smoke", parallel_smoke);
      ("prune", prune);
      ("prune_smoke", prune_smoke);
      ("taint", taint);
      ("taint_smoke", taint_smoke);
      ("incr", incr);
      ("incr_smoke", incr_smoke);
      ("serve", serve);
      ("serve_smoke", serve_smoke);
      ("micro", micro);
      ("kernel", kernel);
    ]
  in
  let args = Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--") in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) targets
  | names ->
    List.iter
      (fun n ->
        match List.assoc_opt n targets with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown target %s (expected: %s)\n" n
            (String.concat " " (List.map fst targets));
          exit 1)
      names
