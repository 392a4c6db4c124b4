(* The cross-frontend equivalence property pinned by ISSUE 6: matched
   MiniJava/MiniFun program pairs (Genpair) must yield identical
   points-to verdicts for every engine, sequentially and under the
   parallel batch scheduler at jobs 1/2/4. The per-query ground truth (mono = exactly one non-null
   site) doubles as a lowering correctness check for both frontends.

   Also here: the Devirtopt acceptance criterion — the pass rewrites at
   least one beyond-CHA closure call on the committed pairs, and the
   rewritten program re-analyzes with unchanged verdicts. *)

module Suite = Pts_workload.Suite
module Genpair = Pts_workload.Genpair
module Pipeline = Pts_clients.Pipeline
module Client = Pts_clients.Client
module Devirtopt = Pts_clients.Devirtopt

let check = Alcotest.check

let langs = [ Loc.Mjava; Loc.Minifun ]
let engine_names = Engine.names ()

let conf = Engine.conf ~budget_limit:2_000_000 ()

(* At most one non-null allocation site: anti-monotone in the target set,
   so it is a valid [satisfy] early-exit predicate. *)
let mono_pred prog ts =
  let nonnull =
    List.filter (fun s -> not prog.Ir.allocs.(s).Ir.alloc_is_null) (Query.sites ts)
  in
  List.length nonnull <= 1

let verdict_name = function
  | Client.Proved -> "proved"
  | Client.Refuted -> "refuted"
  | Client.Unknown -> "unknown"

let expected q = if q.Genpair.q_mono then Client.Proved else Client.Refuted

(* The Cell/poly scenario overwrites the cell unconditionally before the
   load, so at runtime the query variable holds exactly one site: the
   "poly" label records the flow-insensitive engines' false positive.
   SUPA's strong update kills the dead store and proves it — pin that
   precision win instead of the shared FP. *)
let expected_for engine_name q =
  if engine_name = "supa" && q.Genpair.q_kind = Genpair.Cell && not q.Genpair.q_mono then
    Client.Proved
  else expected q

let vt = Alcotest.testable (Fmt.of_to_string verdict_name) ( = )

(* ------------------------- sequential engines ------------------------ *)

let verdict_seq pl engine_name (q : Genpair.query_spec) =
  let prog = pl.Pipeline.prog in
  let node = Pipeline.find_local_any pl ~var:q.Genpair.q_var in
  let engine = Engine.create ~conf engine_name pl.Pipeline.pag in
  Client.verdict_of (mono_pred prog) (engine.Engine.points_to ~satisfy:(mono_pred prog) node)

let test_pair_seq name () =
  let pair = Suite.pair name in
  List.iter
    (fun engine_name ->
      List.iter
        (fun q ->
          let label lang =
            Printf.sprintf "%s %s %s %s" name (Loc.lang_name lang) engine_name q.Genpair.q_var
          in
          let v lang = verdict_seq (Suite.pair_pipeline name lang) engine_name q in
          let vmj = v Loc.Mjava and vmf = v Loc.Minifun in
          check vt (label Loc.Mjava) (expected_for engine_name q) vmj;
          check vt (label Loc.Minifun) (expected_for engine_name q) vmf)
        pair.Genpair.p_queries)
    engine_names

(* ------------------------- parallel batches -------------------------- *)

let verdicts_par pl engine_name jobs (queries : Genpair.query_spec list) =
  let prog = pl.Pipeline.prog in
  let qarr =
    Array.of_list
      (List.map
         (fun q ->
           Parsolve.query ~satisfy:(mono_pred prog) (Pipeline.find_local_any pl ~var:q.Genpair.q_var))
         queries)
  in
  let r = Parsolve.run ~conf ~jobs ~engine:engine_name pl.Pipeline.pag qarr in
  Array.to_list (Array.map (Client.verdict_of (mono_pred prog)) r.Parsolve.outcomes)

let test_pair_par name () =
  let pair = Suite.pair name in
  List.iter
    (fun engine_name ->
      let expected_all = List.map (expected_for engine_name) pair.Genpair.p_queries in
      List.iter
        (fun jobs ->
          List.iter
            (fun lang ->
              let vs =
                verdicts_par (Suite.pair_pipeline name lang) engine_name jobs pair.Genpair.p_queries
              in
              check (Alcotest.list vt)
                (Printf.sprintf "%s %s %s jobs=%d" name (Loc.lang_name lang) engine_name jobs)
                expected_all vs)
            langs)
        [ 1; 2; 4 ])
    engine_names

(* ---------------------------- devirtopt ------------------------------ *)

(* desc -> verdict for one client on one pipeline, under dynsum. *)
let client_verdicts queries_of pl =
  let engine = Engine.create ~conf "dynsum" pl.Pipeline.pag in
  List.map
    (fun (q : Client.query) ->
      ( q.Client.q_desc,
        Client.verdict_of q.Client.q_pred
          (engine.Engine.points_to ~satisfy:q.Client.q_pred q.Client.q_node) ))
    (queries_of pl)
  |> List.sort compare

(* Safecast derives queries from casts, so its descriptor set is stable
   under call rewriting and verdicts must match exactly. Nullderef
   queries virtual-call receivers and Factorym skips statically-bound
   calls, so a Virtual->Ctor rewrite legitimately removes queries from
   both: there the rewritten set must be a sub-map of the original
   (nothing appears or changes verdict, entries may only vanish with
   their rewritten call sites). *)
let check_client_stability label pl pl' =
  check
    (Alcotest.list (Alcotest.pair Alcotest.string vt))
    (Printf.sprintf "%s: safecast verdicts" label)
    (client_verdicts Pts_clients.Safecast.queries pl)
    (client_verdicts Pts_clients.Safecast.queries pl');
  List.iter
    (fun (cname, queries_of) ->
      let before = client_verdicts queries_of pl in
      let after = client_verdicts queries_of pl' in
      List.iter
        (fun (desc, v) ->
          match List.assoc_opt desc before with
          | Some v0 -> check vt (Printf.sprintf "%s: %s %s" label cname desc) v0 v
          | None -> Alcotest.failf "%s: %s query %S appeared after rewrite" label cname desc)
        after)
    [ ("nullderef", Pts_clients.Nullderef.queries); ("factorym", Pts_clients.Factorym.queries) ]

let test_devirtopt_pair name lang () =
  let pair = Suite.pair name in
  let pl = Suite.pair_pipeline name lang in
  List.iter
    (fun engine_name ->
      let dv = Devirtopt.run ~conf ~engine:engine_name pl in
      (* scenario 0 is a monomorphic apply/call with >= 2 CHA targets *)
      check Alcotest.bool
        (Printf.sprintf "%s %s %s: rewrites a beyond-CHA site" name (Loc.lang_name lang) engine_name)
        true
        (Devirtopt.analysis_rewrites dv >= 1);
      (* the rewritten program re-analyzes with unchanged verdicts *)
      let pl' = Pipeline.of_program dv.Devirtopt.dv_prog in
      List.iter
        (fun q ->
          let v = verdict_seq pl' engine_name q in
          check vt
            (Printf.sprintf "%s %s %s %s after rewrite" name (Loc.lang_name lang) engine_name
               q.Genpair.q_var)
            (expected_for engine_name q) v)
        pair.Genpair.p_queries;
      check_client_stability
        (Printf.sprintf "%s %s %s" name (Loc.lang_name lang) engine_name)
        pl pl')
    engine_names

let test_devirtopt_idempotent () =
  (* a second pass over the rewritten program finds nothing new beyond
     CHA: every provably-monomorphic virtual site is already direct *)
  let pl = Suite.pair_pipeline "pair-m" Loc.Minifun in
  let dv = Devirtopt.run ~engine:"dynsum" pl in
  let pl' = Pipeline.of_program dv.Devirtopt.dv_prog in
  let dv' = Devirtopt.run ~engine:"dynsum" pl' in
  check Alcotest.int "no rewrites left" 0 (List.length dv'.Devirtopt.dv_rewrites)

let () =
  Alcotest.run "crossfrontend"
    [
      ( "equivalence",
        List.map
          (fun name -> Alcotest.test_case (name ^ " sequential") `Quick (test_pair_seq name))
          Suite.pair_names
        @ List.map
            (fun name -> Alcotest.test_case (name ^ " parallel") `Quick (test_pair_par name))
            Suite.pair_names );
      ( "devirtopt",
        List.concat_map
          (fun name ->
            List.map
              (fun lang ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s" name (Loc.lang_name lang))
                  `Quick
                  (test_devirtopt_pair name lang))
              langs)
          Suite.pair_names
        @ [ Alcotest.test_case "idempotent" `Quick test_devirtopt_idempotent ] );
    ]
