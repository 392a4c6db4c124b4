(* SUPA, the flow-sensitive strong-update engine. Pins the ISSUE's
   acceptance bar directly:

   - soundness: SUPA's points-to answers are always a subset of
     NOREFINE's (the flow-insensitive baseline it filters), on generated
     programs seeded with every taint shape;
   - recall: its taint verdicts never miss a ground-truth true flow,
     across jobs 1/2/4 — including the weak-update controls where a
     strong update would be unsound;
   - precision: the overwrite-kill shapes are NOT flagged (the
     flow-insensitive false positive SUPA exists to remove);
   - strong-update admission: [Pag.oracle_singleton] refuses array and
     loop-allocated (summary) sites;
   - edit safety: a post-freeze overlay that adds a second inflow to the
     killed box, or any store on the killed field, downgrades the strong
     update — the answer falls back to the flow-insensitive baseline. *)

module G = Pts_workload.Genprog
module Check = Pts_clients.Check
module Diag = Pts_clients.Diag
module Pipeline = Pts_clients.Pipeline
module Client = Pts_clients.Client

let check = Alcotest.check

(* Generous budget: the subset property is only meaningful when both
   engines resolve. *)
let conf = Engine.conf ~budget_limit:2_000_000 ()

(* Small configs with every taint shape present: true flows, clean
   look-alikes, overwrite kills and weak-update controls. *)
let taint_config_arbitrary =
  let gen =
    let open QCheck.Gen in
    let* cfg = Support.small_config ~name:"supa-prop" in
    let* flows = int_range 1 2 in
    let* kill = int_range 1 2 in
    let* weak = int_range 1 2 in
    return
      {
        cfg with
        G.n_taint_flows = flows;
        n_taint_clean = 1;
        n_taint_kill = kill;
        n_taint_weak = weak;
      }
  in
  QCheck.make ~print:G.describe gen

(* One frontend+Andersen run per distinct config, labels included. *)
let truth_cache : (G.config, (string * G.taint_label list) * Pipeline.t) Hashtbl.t =
  Hashtbl.create 16

let build_truth cfg =
  match Hashtbl.find_opt truth_cache cfg with
  | Some v -> v
  | None ->
    let source, labels = G.generate_with_truth cfg in
    let v = ((source, labels), Pipeline.of_source source) in
    Hashtbl.add truth_cache cfg v;
    v

let sample_queries pl =
  Pts_clients.Safecast.queries pl
  @ List.filteri (fun i _ -> i mod 4 = 0) (Pts_clients.Nullderef.queries pl)

(* ------------------- soundness: SUPA subset NOREFINE ------------------- *)

let prop_supa_subset_norefine =
  QCheck.Test.make ~name:"supa answers subset of norefine, generated programs" ~count:5
    taint_config_arbitrary
    (fun cfg ->
      let _, pl = build_truth cfg in
      let pag = pl.Pipeline.pag in
      let supa = Engine.create ~conf "supa" pag in
      let nore = Engine.create ~conf "norefine" pag in
      List.for_all
        (fun q ->
          let n = q.Client.q_node in
          match (supa.Engine.points_to n, nore.Engine.points_to n) with
          | Query.Resolved a, Query.Resolved b -> Query.Target_set.subset a b
          | Query.Exceeded, _ | _, Query.Exceeded -> true)
        (sample_queries pl))

(* ---------------- recall and precision on the checker ----------------- *)

let prop_supa_taint_verdicts =
  QCheck.Test.make ~name:"supa misses no true flow, flags no kill shape" ~count:4
    taint_config_arbitrary
    (fun cfg ->
      let (source, labels), pl = build_truth cfg in
      let spec = Pts_taint.Spec.of_source source in
      let checkers = [ Pts_taint.Checker.checker ~spec () ] in
      List.for_all
        (fun jobs ->
          let opts = { Check.default_opts with Check.o_engine = "supa"; o_jobs = jobs; o_conf = conf } in
          let report = Check.run ~opts ~checkers pl in
          let flagged m =
            List.exists (fun d -> String.equal d.Diag.d_method m) report.Check.r_diags
          in
          List.for_all
            (fun l ->
              if l.G.tl_tainted then flagged l.G.tl_method
              else not (flagged l.G.tl_method))
            labels)
        [ 1; 2; 4 ])

(* -------------- strong-update admission: summary sites ---------------- *)

let summary_src =
  String.concat "\n"
    [
      "class Box { Object slot; Box() {} }";
      "class Main {";
      "  static void main() {";
      "    Object[] arr = new Object[4];";
      "    Box c = new Box();";
      "    Box d = null;";
      "    for (int i = 0; i < 2; i = i + 1) { d = new Box(); }";
      "  }";
      "}";
    ]

let sites_of pl engine_name var =
  let pag = pl.Pipeline.pag in
  let e = Engine.create ~conf engine_name pag in
  match e.Engine.points_to (Pipeline.find_local_any pl ~var) with
  | Query.Resolved ts -> Query.sites ts
  | Query.Exceeded -> Alcotest.failf "query on %s exceeded" var

let test_oracle_refuses_summary () =
  let pl = Pipeline.of_source summary_src in
  let pag = pl.Pipeline.pag in
  let prog = pl.Pipeline.prog in
  (* arr: a single-site row, but the site is an array object *)
  (match sites_of pl "norefine" "arr" with
  | [ s ] ->
    check Alcotest.bool "array site is summary" true (Pag.site_is_summary pag s);
    check Alcotest.bool "array singleton refused" true
      (Pag.oracle_singleton pag (Pipeline.find_local_any pl ~var:"arr") = None)
  | sites -> Alcotest.failf "arr should have one site, got %d" (List.length sites));
  (* c: a plain unconditional alloc — the admissible case *)
  (match sites_of pl "norefine" "c" with
  | [ s ] ->
    check Alcotest.bool "plain site not summary" false (Pag.site_is_summary pag s);
    check Alcotest.bool "plain singleton admitted" true
      (Pag.oracle_singleton pag (Pipeline.find_local_any pl ~var:"c") = Some s)
  | sites -> Alcotest.failf "c should have one site, got %d" (List.length sites));
  (* d: the loop-allocated box abstracts many runtime objects *)
  let d_sites = sites_of pl "norefine" "d" in
  let loop_sites =
    List.filter (fun s -> not prog.Ir.allocs.(s).Ir.alloc_is_null) d_sites
  in
  check Alcotest.bool "loop alloc present" false (loop_sites = []);
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "loop site %d is summary" s) true
        (Pag.site_is_summary pag s))
    loop_sites;
  check Alcotest.bool "loop singleton refused" true
    (Pag.oracle_singleton pag (Pipeline.find_local_any pl ~var:"d") = None)

(* ------------- the kill shape, and its overlay downgrades ------------- *)

let kill_src =
  String.concat "\n"
    [
      "class Secret { Secret() {} }";
      "class Item { Item() {} }";
      "class Box { Object slot; Box() {} }";
      "class Main {";
      "  static void main() {";
      "    Box b = new Box();";
      "    Object s = new Secret();";
      "    b.slot = s;";
      "    Object c = new Item();";
      "    b.slot = c;";
      "    Object out = b.slot;";
      "  }";
      "}";
    ]

(* [out] under SUPA must hold only the Item: the second store strongly
   kills the Secret. NOREFINE keeps both. *)
let test_supa_strong_update () =
  let pl = Pipeline.of_source kill_src in
  let pag = pl.Pipeline.pag in
  let supa = Engine.create ~conf "supa" pag in
  let out = Pipeline.find_local_any pl ~var:"out" in
  let secret = match sites_of pl "norefine" "s" with
    | [ s ] -> s
    | _ -> Alcotest.fail "s should have one site"
  in
  let nore_sites = sites_of pl "norefine" "out" in
  check Alcotest.bool "norefine keeps the killed secret" true (List.mem secret nore_sites);
  (match supa.Engine.points_to out with
  | Query.Resolved ts ->
    let sites = Query.sites ts in
    check Alcotest.bool "supa kills the secret" false (List.mem secret sites);
    check Alcotest.bool "supa still strictly smaller" true
      (List.length sites < List.length nore_sites)
  | Query.Exceeded -> Alcotest.fail "supa exceeded on the kill shape");
  check Alcotest.bool "strong update recorded" true
    (Pts_util.Stats.get supa.Engine.stats "strong_updates" > 0)

(* Any overlay store on the killed field is invisible to the IR scan, so
   SUPA must fall back to the flow-insensitive answer. *)
let test_supa_field_overlay_downgrade () =
  let pl = Pipeline.of_source kill_src in
  let pag = pl.Pipeline.pag in
  let out = Pipeline.find_local_any pl ~var:"out" in
  let s_node = Pipeline.find_local_any pl ~var:"s" in
  let secret = match sites_of pl "norefine" "s" with
    | [ s ] -> s
    | _ -> Alcotest.fail "s should have one site"
  in
  let b_node = Pipeline.find_local_any pl ~var:"b" in
  let fld = match Support.row pag Pag.View.store_in b_node with
    | (fld, _) :: _ -> fld
    | [] -> Alcotest.fail "b should be a store base"
  in
  check Alcotest.bool "field clean before edit" true (Pag.field_overlay_clean pag fld);
  let _commit = Pag.apply_edits pag [ Pag.Eadd (Pag.Estore { base = s_node; fld; src = s_node }) ] in
  check Alcotest.bool "field dirty after edit" false (Pag.field_overlay_clean pag fld);
  let supa = Engine.create ~conf "supa" pag in
  match supa.Engine.points_to out with
  | Query.Resolved ts ->
    check Alcotest.bool "downgraded: secret is back" true (List.mem secret (Query.sites ts))
  | Query.Exceeded -> Alcotest.fail "supa exceeded after field edit"

(* A second inflow into the killed box (overlay assign edge) breaks the
   must-alias licence: the base is no longer overlay-clean, so the
   strong update is refused and the Secret survives. *)
let test_supa_inflow_overlay_downgrade () =
  let pl = Pipeline.of_source kill_src in
  let pag = pl.Pipeline.pag in
  let out = Pipeline.find_local_any pl ~var:"out" in
  let b_node = Pipeline.find_local_any pl ~var:"b" in
  let s_node = Pipeline.find_local_any pl ~var:"s" in
  let secret = match sites_of pl "norefine" "s" with
    | [ s ] -> s
    | _ -> Alcotest.fail "s should have one site"
  in
  let _commit = Pag.apply_edits pag [ Pag.Eadd (Pag.Eassign { src = s_node; dst = b_node }) ] in
  let supa = Engine.create ~conf "supa" pag in
  (match supa.Engine.points_to out with
  | Query.Resolved ts ->
    check Alcotest.bool "downgraded: secret is back" true (List.mem secret (Query.sites ts))
  | Query.Exceeded -> Alcotest.fail "supa exceeded after inflow edit");
  (* still sound vs the post-edit baseline *)
  let nore = Engine.create ~conf "norefine" pag in
  match (Engine.create ~conf "supa" pag).Engine.points_to out, nore.Engine.points_to out with
  | Query.Resolved a, Query.Resolved b ->
    check Alcotest.bool "still subset of baseline" true (Query.Target_set.subset a b)
  | _ -> Alcotest.fail "post-edit queries exceeded"

let () =
  Alcotest.run "supa"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_supa_subset_norefine;
          QCheck_alcotest.to_alcotest ~long:false prop_supa_taint_verdicts;
        ] );
      ( "admission",
        [ Alcotest.test_case "oracle refuses summary sites" `Quick test_oracle_refuses_summary ] );
      ( "strong updates",
        [
          Alcotest.test_case "kill shape strongly updated" `Quick test_supa_strong_update;
          Alcotest.test_case "field overlay downgrades" `Quick test_supa_field_overlay_downgrade;
          Alcotest.test_case "inflow overlay downgrades" `Quick test_supa_inflow_overlay_downgrade;
        ] );
    ]
