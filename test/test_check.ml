(* The checker subsystem's acceptance properties:

   - the report JSON is byte-identical across all four engines and
     across --jobs 1/2/4 (the determinism criterion — it holds because
     the driver queries without [satisfy] and the report carries only
     engine-independent data);
   - on seeded-defect workloads the taint checker attains recall 1.0
     and flags no clean variant (ground truth from
     Genprog.generate_with_truth);
   - every points-to-backed diagnostic carries a witness chain that
     Witness.validate accepts, and tampered chains are rejected;
   - the driver's node-dedup arithmetic, NullDeref's per-method deref
     numbering, the deadcode lint and the annotation scanner behave. *)

module G = Pts_workload.Genprog
module Check = Pts_clients.Check
module Diag = Pts_clients.Diag
module Client = Pts_clients.Client
module Pipeline = Pts_clients.Pipeline
module Spec = Pts_taint.Spec
module Stats = Pts_util.Stats

let tainted_config =
  let open QCheck.Gen in
  let* seed = int_bound 10_000 in
  let* elems = int_range 2 4 in
  let* boxes = int_range 1 2 in
  let* apps = int_range 2 4 in
  let* utils = int_range 0 2 in
  let* flows = int_range 1 6 in
  let* clean = int_range 1 6 in
  return
    {
      G.name = "taintprop";
      seed;
      n_elem_classes = elems;
      n_containers = 2;
      n_boxes = boxes;
      n_lists = 1;
      n_factories = 1;
      n_utils = utils;
      util_chain = 2;
      n_apps = apps;
      n_globals = 2;
      churn = 4;
      null_rate = 0.3;
      bad_cast_rate = 0.2;
      shared_rate = 0.3;
      interact_rate = 0.3;
      n_taint_flows = flows;
      n_taint_clean = clean;
      (* kill/weak shapes deliberately absent: the properties below pin
         the flow-insensitive engines, which report kill shapes as
         (labelled) false positives — test_supa covers those. *)
      n_taint_kill = 0;
      n_taint_weak = 0;
    }

let config_arbitrary = QCheck.make ~print:G.describe tainted_config

(* One compile + Andersen run per distinct config across all properties. *)
let build_cache : (G.config, string * G.taint_label list * Pipeline.t) Hashtbl.t =
  Hashtbl.create 16

let build cfg =
  match Hashtbl.find_opt build_cache cfg with
  | Some v -> v
  | None ->
    let source, labels = G.generate_with_truth cfg in
    let v = (source, labels, Pipeline.of_source source) in
    Hashtbl.add build_cache cfg v;
    v

let checkers_for source = [ Pts_taint.Checker.checker ~spec:(Spec.of_source source) () ]

let report_string ?(engine = "dynsum") ?(jobs = 1) source pl =
  let opts = { Check.default_opts with Check.o_engine = engine; o_jobs = jobs } in
  Trace.Json.to_string (Check.report_json (Check.run ~opts ~checkers:(checkers_for source) pl))

(* Byte-identity of the report across engines and job counts. *)
let prop_report_identical =
  QCheck.Test.make ~name:"check report byte-identical across engines/jobs" ~count:6
    config_arbitrary
    (fun cfg ->
      let source, _, pl = build cfg in
      let reference = report_string source pl in
      List.for_all
        (fun (engine, jobs) -> String.equal reference (report_string ~engine ~jobs source pl))
        [ ("norefine", 1); ("refinepts", 1); ("stasum", 1); ("dynsum", 2); ("dynsum", 4);
          ("refinepts", 2) ])

(* Seeded ground truth: recall 1.0, clean variants silent, and every
   finding lands on a labelled sink line. *)
let prop_ground_truth =
  QCheck.Test.make ~name:"taint recall 1.0 and clean variants unflagged" ~count:8
    config_arbitrary
    (fun cfg ->
      let source, labels, pl = build cfg in
      let report = Check.run ~checkers:(checkers_for source) pl in
      let flagged l =
        List.exists
          (fun d ->
            String.equal d.Diag.d_method l.G.tl_method && d.Diag.d_line = l.G.tl_line)
          report.Check.r_diags
      in
      let labelled d =
        List.exists (fun l -> String.equal l.G.tl_method d.Diag.d_method) labels
      in
      List.for_all (fun l -> if l.G.tl_tainted then flagged l else not (flagged l)) labels
      && List.for_all labelled report.Check.r_diags)

(* Every taint refutation is explainable by a witness chain the
   independent validator accepts; tampered chains are rejected. *)
let prop_witness_valid =
  QCheck.Test.make ~name:"taint witnesses validate (and tampered ones do not)" ~count:6
    config_arbitrary
    (fun cfg ->
      let source, _, pl = build cfg in
      let pag = pl.Pipeline.pag in
      let ctx = { Check.cx_pl = pl; cx_stats = Stats.create () } in
      let points = Pts_taint.Checker.points ~spec:(Spec.of_source source) ctx in
      let engine = Engine.create "dynsum" pag in
      List.for_all
        (fun (pt : Check.point) ->
          match engine.Engine.points_to pt.Check.pt_node with
          | Query.Exceeded -> true
          | Query.Resolved targets ->
            let sites = Query.sites targets in
            if pt.Check.pt_pred targets then true
            else begin
              match pt.Check.pt_bad_sites sites with
              | [] -> false (* refuted points must expose a violating site *)
              | site :: _ -> (
                match Witness.explain pag pt.Check.pt_node ~site with
                | None -> false (* every refutation must be explainable *)
                | Some steps ->
                  Witness.validate pag ~query:pt.Check.pt_node ~site steps
                  && (* dropping the initial state breaks the chain *)
                  not (Witness.validate pag ~query:pt.Check.pt_node ~site (List.tl steps))
                  && (* so does rebasing it on a different query node *)
                  not (Witness.validate pag ~query:(pt.Check.pt_node + 1) ~site steps))
            end)
        points)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let diag ?(checker = "t") ?(severity = Diag.Error) ?(meth = "M.m") ?(line = 1) ?(msg = "x")
    ?(witness = []) () =
  {
    Diag.d_checker = checker;
    d_severity = severity;
    d_method = meth;
    d_line = line;
    d_message = msg;
    d_witness = witness;
  }

let test_diag_order () =
  let a = diag ~checker:"a" () in
  let b = diag ~checker:"b" () in
  let l1 = diag ~line:1 () and l2 = diag ~line:2 () in
  Alcotest.(check bool) "checker major" true (Diag.compare a b < 0);
  Alcotest.(check bool) "line ascending" true (Diag.compare l1 l2 < 0);
  Alcotest.(check int) "reflexive" 0 (Diag.compare a a);
  (* sort_uniq with this comparator is what dedups the report *)
  let sorted = List.sort_uniq Diag.compare [ b; a; b; l2; l1; a ] in
  Alcotest.(check int) "dedup" 4 (List.length sorted)

let test_diag_json () =
  let d = diag ~witness:[ "s1"; "s2" ] () in
  Alcotest.(check string) "field order fixed"
    "{\"checker\":\"t\",\"severity\":\"error\",\"method\":\"M.m\",\"line\":1,\"message\":\"x\",\"witness\":[\"s1\",\"s2\"]}"
    (Trace.Json.to_string (Diag.to_json d))

let test_severity () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "roundtrip" true
        (Diag.severity_of_string (Diag.severity_to_string s) = Some s))
    [ Diag.Info; Diag.Warning; Diag.Error ];
  Alcotest.(check bool) "error >= warning" true (Diag.severity_geq Diag.Error Diag.Warning);
  Alcotest.(check bool) "info < warning" false (Diag.severity_geq Diag.Info Diag.Warning)

(* Many NullDeref points share a PAG node (the same variable dereferenced
   repeatedly); the driver answers each node once and counts the rest. *)
let test_dedup_hits () =
  let pl = Pts_workload.Suite.pipeline "jack" in
  let report = Check.run ~checkers:[ Pts_clients.Nullderef.checker ] pl in
  Alcotest.(check int) "arithmetic"
    (report.Check.r_points - report.Check.r_unique_nodes)
    report.Check.r_dedup_hits;
  Alcotest.(check bool) "nullderef dedups on jack" true (report.Check.r_dedup_hits > 0);
  Alcotest.(check int) "stats mirror" report.Check.r_dedup_hits
    (Stats.get report.Check.r_stats "dedup_hits")

(* The satellite fix: deref numbering restarts at 0 in every method, so a
   method's query descriptions no longer depend on how many methods were
   scanned before it. *)
let test_nullderef_numbering () =
  let pl = Pts_workload.Suite.pipeline "jack" in
  let per_method = Hashtbl.create 64 in
  List.iter
    (fun (q : Client.query) ->
      Scanf.sscanf q.Client.q_desc "deref#%d of %s in %s" (fun i _ m ->
          let r =
            match Hashtbl.find_opt per_method m with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.add per_method m r;
              r
          in
          r := i :: !r))
    (Pts_clients.Nullderef.queries pl);
  Alcotest.(check bool) "some methods have derefs" true (Hashtbl.length per_method > 1);
  Hashtbl.iter
    (fun m r ->
      (* numbering is 1-based and restarts in every method: indices are
         exactly 1..k regardless of what earlier methods contained *)
      let ids = List.rev !r in
      List.iteri
        (fun idx got ->
          Alcotest.(check int) (Printf.sprintf "%s deref %d" m idx) (idx + 1) got)
        ids)
    per_method

let test_deadcode () =
  let src =
    "class Box { Object f; Object g; Box() { } void set(Object x) { this.f = x; this.g = x; } \
     Object get() { return this.f; } }\n\
     class Main { Main() { } static void main() { Box b = new Box(); b.set(b); Object y = \
     b.get(); } static void orphan() { Box c = new Box(); } }\n"
  in
  let pl = Pipeline.of_source src in
  let report = Check.run ~checkers:[ Pts_clients.Deadcode.checker ] pl in
  let mentions needle d =
    let n = String.length needle and msg = d.Diag.d_message in
    let rec at i = i + n <= String.length msg && (String.sub msg i n = needle || at (i + 1)) in
    at 0
  in
  let find sev needle =
    List.exists
      (fun d -> d.Diag.d_severity = sev && d.Diag.d_checker = "deadcode" && mentions needle d)
      report.Check.r_diags
  in
  Alcotest.(check bool) "dead store on g" true (find Diag.Warning "g");
  Alcotest.(check bool) "orphan unreachable" true (find Diag.Info "orphan");
  Alcotest.(check bool) "f is live" false (find Diag.Warning "field f")

let test_annotations () =
  let src =
    "class A { // plain note\n\
     /* block comment\n\
     spanning */\n\
     A() { String s = \"// not a comment @taint-source\"; } // @taint-source\n\
     } // @taint-sink trailing\n"
  in
  let anns = Frontend.annotations src in
  Alcotest.(check int) "only @-comments" 2 (List.length anns);
  (match anns with
  | (a, p1) :: (b, p2) :: [] ->
    Alcotest.(check bool) "source ann" true (String.length a >= 2 && p1.Loc.line = 4);
    Alcotest.(check bool) "sink ann" true (String.length b >= 2 && p2.Loc.line = 5)
  | _ -> Alcotest.fail "expected two annotations");
  let spec = Spec.of_source src in
  Alcotest.(check (list int)) "source lines" [ 4 ] spec.Spec.source_lines;
  Alcotest.(check (list int)) "sink lines" [ 5 ] spec.Spec.sink_lines

(* End-to-end on a hand-written annotated program: the annotated flow is
   found with a witness; the structurally identical clean flow is not. *)
let test_annotated_taint () =
  let src =
    "class Cell { Object v; Cell() { } void put(Object x) { this.v = x; } Object take() { \
     return this.v; } }\n\
     class Main { Main() { }\n\
     static void main() {\n\
     Cell c = new Cell();\n\
     Object s = new Cell(); // @taint-source\n\
     c.put(s);\n\
     Object out = c.take();\n\
     Main.report(out); // @taint-sink\n\
     Cell clean = new Cell();\n\
     Cell box = new Cell();\n\
     box.put(clean);\n\
     Object ok = box.take();\n\
     Main.report(ok);\n\
     }\n\
     static void report(Object x) { Object y = x; } }\n"
  in
  let pl = Pipeline.of_source src in
  let report = Check.run ~checkers:(checkers_for src) pl in
  Alcotest.(check int) "exactly one finding" 1 (List.length report.Check.r_diags);
  let d = List.hd report.Check.r_diags in
  Alcotest.(check string) "taint checker" "taint" d.Diag.d_checker;
  Alcotest.(check int) "at the annotated sink line" 8 d.Diag.d_line;
  Alcotest.(check bool) "carries a witness" true (d.Diag.d_witness <> [])

let test_max_severity () =
  let r report = Check.max_severity report in
  let pl = Pts_workload.Suite.pipeline "jack" in
  let none = Check.run ~checkers:[ Pts_taint.Checker.checker () ] pl in
  Alcotest.(check bool) "clean suite: no taint severity" true (r none = None);
  let all = Check.run ~checkers:(Pts_taint.Registry.all ()) pl in
  Alcotest.(check bool) "full suite: errors" true (r all = Some Diag.Error)

let () =
  Alcotest.run "check"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_report_identical;
          QCheck_alcotest.to_alcotest ~long:false prop_ground_truth;
          QCheck_alcotest.to_alcotest ~long:false prop_witness_valid;
        ] );
      ( "units",
        [
          Alcotest.test_case "diag ordering and dedup" `Quick test_diag_order;
          Alcotest.test_case "diag json field order" `Quick test_diag_json;
          Alcotest.test_case "severity round trips" `Quick test_severity;
          Alcotest.test_case "driver dedups shared nodes" `Quick test_dedup_hits;
          Alcotest.test_case "nullderef numbering is per-method" `Quick test_nullderef_numbering;
          Alcotest.test_case "deadcode lint" `Quick test_deadcode;
          Alcotest.test_case "annotation scanner" `Quick test_annotations;
          Alcotest.test_case "annotated taint end to end" `Quick test_annotated_taint;
          Alcotest.test_case "max severity gate" `Quick test_max_severity;
        ] );
    ]
