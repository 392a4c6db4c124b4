(* The paper's running example (Figure 2 / Table 1): a Vector used by two
   Clients under different calling contexts. Shows that all four engines
   give the paper's context-sensitive answer — s1 -> {Integer},
   s2 -> {String} — and that DYNSUM answers s2 largely from the summaries
   it computed for s1.

     dune exec examples/figure2_walkthrough.exe *)

let () =
  print_string Pts_workload.Figure2.source;
  let pl = Pts_workload.Figure2.pipeline () in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  let s1 = Pts_workload.Figure2.s1 pl in
  let s2 = Pts_workload.Figure2.s2 pl in

  let show engine_name outcome =
    match outcome with
    | Query.Exceeded -> Printf.printf "  %-10s budget exceeded\n" engine_name
    | Query.Resolved ts ->
      Printf.printf "  %-10s {%s}\n" engine_name
        (String.concat ", " (List.map (Ir.alloc_name prog) (Query.sites ts)))
  in

  Printf.printf "\n-- all four engines, query s1 then s2 --\n";
  List.iter
    (fun (e : Engine.engine) ->
      Printf.printf "%s:\n" e.Engine.name;
      show "s1" (e.Engine.points_to s1);
      show "s2" (e.Engine.points_to s2))
    (Pts_clients.Pipeline.engines ~with_stasum:true pl);

  Printf.printf "\n-- DYNSUM reuse between the two queries --\n";
  let dynsum = Dynsum.create pag in
  let budget = Dynsum.budget dynsum in
  ignore (Dynsum.points_to dynsum s1);
  let steps_s1 = Budget.total_steps budget in
  let sum_s1 = Dynsum.summary_count dynsum in
  let hits_s1 = Pts_util.Stats.get (Dynsum.stats dynsum) "summary_hits" in
  ignore (Dynsum.points_to dynsum s2);
  let steps_s2 = Budget.total_steps budget - steps_s1 in
  let hits_s2 = Pts_util.Stats.get (Dynsum.stats dynsum) "summary_hits" - hits_s1 in
  Printf.printf "query s1: %4d steps, %d summaries computed\n" steps_s1 sum_s1;
  Printf.printf "query s2: %4d steps, %d summaries total, %d cache hits\n" steps_s2
    (Dynsum.summary_count dynsum) hits_s2;
  Printf.printf
    "(the paper's Table 1: s1 takes 23 traversal steps, s2 only 15 because the\n\
    \ Vector summaries computed for s1 are reused under c2's calling context)\n";

  Printf.printf "\n-- the Andersen (Spark-substitute) baseline merges the contexts --\n";
  List.iter
    (fun (name, node) ->
      let sites = Pts_util.Bitset.to_list (Pts_andersen.Solver.points_to pl.Pts_clients.Pipeline.solver node) in
      Printf.printf "  %s -> {%s}\n" name (String.concat ", " (List.map (Ir.alloc_name prog) sites)))
    [ ("s1", s1); ("s2", s2) ]
