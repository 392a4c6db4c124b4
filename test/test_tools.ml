(* Tests for the tooling layer: CHA construction, alias queries,
   witnesses, DOT export. *)

let check = Alcotest.check

let pipeline src = Pts_clients.Pipeline.of_source src

(* ------------------------------- CHA -------------------------------- *)

let dispatch_src =
  {|
class A { Object m() { return new A(); } }
class B extends A { Object m() { return new B(); } }
class C extends B {}
class Main {
  static void main() {
    A x = new B();
    Object r = x.m();
  }
}|}

let test_cha_overapproximates_dispatch () =
  let prog = Frontend.compile dispatch_src in
  let _pag, cha_cg = Cha.build prog in
  let pl = Pts_clients.Pipeline.of_program prog in
  let otf_cg = pl.Pts_clients.Pipeline.callgraph in
  (* every on-the-fly edge is also a CHA edge *)
  Callgraph.iter_edges otf_cg (fun ~site ~caller ~target ->
      check Alcotest.bool "otf within CHA" true
        (List.exists
           (fun t -> t = target)
           (Callgraph.targets cha_cg site)
        || caller < 0 (* unreachable *)));
  (* CHA is strictly coarser here: the receiver's static type A admits
     A.m as a target even though only B flows in *)
  let name m = prog.Ir.methods.(m).Ir.pretty in
  let cha_targets = ref [] in
  Callgraph.iter_edges cha_cg (fun ~site:_ ~caller ~target ->
      if name caller = "Main.main" && String.length (name target) > 1 then
        cha_targets := name target :: !cha_targets);
  check Alcotest.bool "CHA includes A.m" true (List.mem "A.m" !cha_targets);
  check Alcotest.bool "CHA includes B.m" true (List.mem "B.m" !cha_targets)

let test_cha_dispatch_targets () =
  let prog = Frontend.compile dispatch_src in
  let ct = prog.Ir.ctable in
  let cls n = match Types.find_class ct n with Some c -> c | None -> Alcotest.fail "cls" in
  let names recv =
    Cha.dispatch_targets prog ~recv_cls:(cls recv) ~mname:"m"
    |> List.map (fun ms -> Types.class_name ct ms.Types.ms_class)
    |> List.sort compare
  in
  check (Alcotest.list Alcotest.string) "from A" [ "A"; "B" ] (names "A");
  check (Alcotest.list Alcotest.string) "from B" [ "B" ] (names "B");
  check (Alcotest.list Alcotest.string) "from C inherits B.m" [ "B" ] (names "C")

let test_cha_engines_still_sound () =
  (* the demand engines run unchanged on a CHA-built PAG and stay sound
     (possibly less precise) *)
  let prog = Frontend.compile dispatch_src in
  let pag, _ = Cha.build prog in
  let dynsum = Dynsum.create pag in
  let pl = Pts_clients.Pipeline.of_program prog in
  let node = Pts_clients.Pipeline.find_local pl ~meth_pretty:"Main.main" ~var:"r" in
  (* same node ids: CHA's PAG uses the same layout *)
  match Dynsum.points_to dynsum node with
  | Query.Exceeded -> Alcotest.fail "exceeded"
  | Query.Resolved ts ->
    let classes =
      Query.sites ts
      |> List.map (fun s -> Types.class_name prog.Ir.ctable prog.Ir.allocs.(s).Ir.alloc_cls)
      |> List.sort_uniq compare
    in
    (* B.m's B is the true answer; CHA may add A.m's A but must include B *)
    check Alcotest.bool "includes the true target" true (List.mem "B" classes)

(* ------------------------------ Alias ------------------------------- *)

let alias_src =
  {|
class A {}
class Id { Object id(Object x) { return x; } }
class Main {
  static void main() {
    Id i = new Id();
    Object a = new A();
    Object b = i.id(a);
    Object c = new A();
  }
}|}

let test_alias_verdicts () =
  let pl = pipeline alias_src in
  let pag = pl.Pts_clients.Pipeline.pag in
  let engine = Engine.dynsum (Dynsum.create pag) in
  let node v = Pts_clients.Pipeline.find_local pl ~meth_pretty:"Main.main" ~var:v in
  let is_verdict = Alcotest.testable
      (fun fmt -> function
        | Alias.Must_not -> Format.pp_print_string fmt "Must_not"
        | Alias.May -> Format.pp_print_string fmt "May"
        | Alias.Unknown -> Format.pp_print_string fmt "Unknown")
      ( = )
  in
  check is_verdict "a and b alias (identity call)" Alias.May
    (Alias.may_alias pag engine (node "a") (node "b"));
  check is_verdict "a and c do not" Alias.Must_not
    (Alias.may_alias pag engine (node "a") (node "c"));
  check is_verdict "same node trivially aliases" Alias.May
    (Alias.may_alias pag engine (node "a") (node "a"));
  check is_verdict "site fallback agrees here" Alias.Must_not
    (Alias.may_alias_sites pag engine (node "a") (node "c"))

(* Disjoint Andersen rows refute the alias before any query runs, so a
   budget too small to answer either points-to query still proves
   [Must_not]; a pair whose rows meet still needs the engine. *)
let test_alias_oracle_disjoint () =
  let pl = pipeline alias_src in
  let pag = pl.Pts_clients.Pipeline.pag in
  let conf = Engine.conf ~budget_limit:1 () in
  let engine = Engine.dynsum (Dynsum.create ~conf pag) in
  let node v = Pts_clients.Pipeline.find_local pl ~meth_pretty:"Main.main" ~var:v in
  check Alcotest.bool "oracle installed" true (Pag.has_oracle pag);
  check Alcotest.bool "a and c rows disjoint" true (Pag.oracle_disjoint pag (node "a") (node "c"));
  check Alcotest.bool "disjoint rows answer Must_not" true
    (Alias.may_alias pag engine (node "a") (node "c") = Alias.Must_not);
  check Alcotest.bool "sites: disjoint rows answer Must_not" true
    (Alias.may_alias_sites pag engine (node "a") (node "c") = Alias.Must_not);
  check Alcotest.bool "no query was issued" true (Budget.total_steps engine.Engine.budget = 0);
  check Alcotest.bool "overlapping rows exceed the budget" true
    (Alias.may_alias pag engine (node "a") (node "b") = Alias.Unknown)

let test_alias_sites_never_more_precise () =
  let pl = Pts_workload.Suite.pipeline "jack" in
  let pag = pl.Pts_clients.Pipeline.pag in
  let engine = Engine.dynsum (Dynsum.create pag) in
  let qs = Pts_clients.Safecast.queries pl in
  let nodes = List.map (fun q -> q.Pts_clients.Client.q_node) qs in
  let rec pairs = function
    | a :: b :: rest -> (a, b) :: pairs rest
    | _ -> []
  in
  List.iter
    (fun (x, y) ->
      match (Alias.may_alias pag engine x y, Alias.may_alias_sites pag engine x y) with
      | Alias.May, Alias.Must_not -> Alcotest.fail "site comparison more precise than full"
      | _ -> ())
    (pairs nodes)

(* ----------------------------- Witness ------------------------------ *)

let test_witness_found () =
  let pl = Pts_workload.Figure2.pipeline () in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  let s1 = Pts_workload.Figure2.s1 pl in
  let dynsum = Dynsum.create pag in
  match Dynsum.points_to dynsum s1 with
  | Query.Exceeded -> Alcotest.fail "exceeded"
  | Query.Resolved ts -> (
    let site = List.hd (Query.sites ts) in
    match Witness.explain pag s1 ~site with
    | None -> Alcotest.fail "no witness for a real target"
    | Some steps ->
      check Alcotest.bool "nonempty chain" true (List.length steps >= 2);
      (* chain starts at the query *)
      check Alcotest.int "starts at query" s1 (List.hd steps).Witness.w_node;
      (* rendering produces one line per step *)
      check Alcotest.int "render lines" (List.length steps)
        (List.length (Witness.render pag steps));
      (* the final state's local summary must expose the site *)
      let last = List.nth steps (List.length steps - 1) in
      let budget = Budget.unlimited () in
      let summary =
        Ppta.compute pag Conf.default budget last.Witness.w_node last.Witness.w_fstack
          last.Witness.w_state
      in
      check Alcotest.bool "last step exposes the site" true (List.mem site summary.Ppta.objs);
      ignore prog)

let test_witness_absent_site () =
  let pl = Pts_workload.Figure2.pipeline () in
  let pag = pl.Pts_clients.Pipeline.pag in
  let s1 = Pts_workload.Figure2.s1 pl in
  let s2 = Pts_workload.Figure2.s2 pl in
  let dynsum = Dynsum.create pag in
  match (Dynsum.points_to dynsum s1, Dynsum.points_to dynsum s2) with
  | Query.Resolved ts1, Query.Resolved ts2 ->
    (* s2's target is NOT derivable for s1 *)
    let alien = List.hd (Query.sites ts2) in
    check Alcotest.bool "alien not in s1" false (List.mem alien (Query.sites ts1));
    check Alcotest.bool "no witness for alien site" true (Witness.explain pag s1 ~site:alien = None)
  | _ -> Alcotest.fail "exceeded"

(* ------------------------------- DOT -------------------------------- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_dot_pag () =
  let pl = Pts_workload.Figure2.pipeline () in
  let dot = Dot.pag pl.Pts_clients.Pipeline.pag in
  check Alcotest.bool "digraph" true (contains ~needle:"digraph pag" dot);
  check Alcotest.bool "has new edges" true (contains ~needle:"label=\"new\"" dot);
  check Alcotest.bool "has entry edges" true (contains ~needle:"entry" dot);
  check Alcotest.bool "mentions s1" true (contains ~needle:"Main.main::s1" dot)

let test_dot_truncation () =
  let pl = Pts_workload.Suite.pipeline "soot-c" in
  let dot = Dot.pag ~max_nodes:50 pl.Pts_clients.Pipeline.pag in
  check Alcotest.bool "truncated" true (contains ~needle:"truncated at 50 nodes" dot)

let test_dot_callgraph () =
  let pl =
    pipeline
      {|
class R { Object loop(int n) { if (n == 0) { return new R(); } return this.loop(n - 1); } }
class Main { static void main() { R r = new R(); Object o = r.loop(2); } }|}
  in
  let dot = Dot.callgraph pl.Pts_clients.Pipeline.prog pl.Pts_clients.Pipeline.callgraph in
  check Alcotest.bool "digraph" true (contains ~needle:"digraph callgraph" dot);
  check Alcotest.bool "recursion highlighted" true (contains ~needle:"color=red" dot);
  check Alcotest.bool "mentions R.loop" true (contains ~needle:"R.loop" dot)

let () =
  Alcotest.run "tools"
    [
      ( "cha",
        [
          Alcotest.test_case "over-approximates dispatch" `Quick test_cha_overapproximates_dispatch;
          Alcotest.test_case "dispatch targets" `Quick test_cha_dispatch_targets;
          Alcotest.test_case "engines sound on CHA PAG" `Quick test_cha_engines_still_sound;
        ] );
      ( "alias",
        [
          Alcotest.test_case "verdicts" `Quick test_alias_verdicts;
          Alcotest.test_case "disjoint oracle rows answer without a query" `Quick
            test_alias_oracle_disjoint;
          Alcotest.test_case "site fallback conservative" `Quick test_alias_sites_never_more_precise;
        ] );
      ( "witness",
        [
          Alcotest.test_case "found" `Quick test_witness_found;
          Alcotest.test_case "absent site" `Quick test_witness_absent_site;
        ] );
      ( "dot",
        [
          Alcotest.test_case "pag" `Quick test_dot_pag;
          Alcotest.test_case "truncation" `Quick test_dot_truncation;
          Alcotest.test_case "callgraph" `Quick test_dot_callgraph;
        ] );
    ]
