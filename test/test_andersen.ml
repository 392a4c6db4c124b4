(* Whole-program Andersen solver (the Spark substitute) tests. *)

let check = Alcotest.check

let pipeline src = Pts_clients.Pipeline.of_source src

let site_classes (pl : Pts_clients.Pipeline.t) set =
  let prog = pl.Pts_clients.Pipeline.prog in
  Pts_util.Bitset.fold set ~init:[] ~f:(fun acc site ->
      Types.class_name prog.Ir.ctable prog.Ir.allocs.(site).Ir.alloc_cls :: acc)
  |> List.sort_uniq compare

let pts_of pl meth var =
  let node = Pts_clients.Pipeline.find_local pl ~meth_pretty:meth ~var in
  Pts_andersen.Solver.points_to pl.Pts_clients.Pipeline.solver node

let test_direct_alloc () =
  let pl = pipeline "class A {} class Main { static void main() { A a = new A(); } }" in
  check (Alcotest.list Alcotest.string) "a -> A" [ "A" ] (site_classes pl (pts_of pl "Main.main" "a"))

let test_copy_chain () =
  let pl =
    pipeline "class A {} class Main { static void main() { A a = new A(); A b = a; A c = b; } }"
  in
  check (Alcotest.list Alcotest.string) "c -> A" [ "A" ] (site_classes pl (pts_of pl "Main.main" "c"))

let test_field_sensitivity () =
  let pl =
    pipeline
      {|
class Box { Object f; Object g; Box() {} }
class A {} class B {}
class Main {
  static void main() {
    Box x = new Box();
    x.f = new A();
    x.g = new B();
    Object rf = x.f;
    Object rg = x.g;
  }
}|}
  in
  check (Alcotest.list Alcotest.string) "rf sees only f" [ "A" ]
    (site_classes pl (pts_of pl "Main.main" "rf"));
  check (Alcotest.list Alcotest.string) "rg sees only g" [ "B" ]
    (site_classes pl (pts_of pl "Main.main" "rg"))

let test_context_insensitive_merge () =
  (* the classic imprecision Andersen must exhibit: Figure 2's s1/s2 merge *)
  let pl = pipeline Pts_workload.Figure2.source in
  check (Alcotest.list Alcotest.string) "s1 merged" [ "Integer"; "String" ]
    (site_classes pl (pts_of pl "Main.main" "s1"));
  check (Alcotest.list Alcotest.string) "s2 merged" [ "Integer"; "String" ]
    (site_classes pl (pts_of pl "Main.main" "s2"))

let test_globals_flow () =
  let pl =
    pipeline
      {|
class A {}
class G { static Object slot; }
class Main {
  static void main() {
    G.slot = new A();
    Object r = G.slot;
  }
}|}
  in
  check (Alcotest.list Alcotest.string) "through global" [ "A" ]
    (site_classes pl (pts_of pl "Main.main" "r"))

let test_parameters_and_returns () =
  let pl =
    pipeline
      {|
class A {}
class Id { Object id(Object x) { return x; } }
class Main { static void main() { Id i = new Id(); Object r = i.id(new A()); } }|}
  in
  check (Alcotest.list Alcotest.string) "identity" [ "A" ]
    (site_classes pl (pts_of pl "Main.main" "r"))

let test_unreachable_methods_skipped () =
  let pl =
    pipeline
      {|
class Dead { void never() { Object x = new Object(); } }
class Main { static void main() { Object o = new Object(); } }|}
  in
  let prog = pl.Pts_clients.Pipeline.prog in
  let dead = Array.to_list prog.Ir.methods |> List.find (fun m -> m.Ir.pretty = "Dead.never") in
  check Alcotest.bool "dead method unreachable" false
    (Pts_andersen.Solver.is_reachable pl.Pts_clients.Pipeline.solver dead.Ir.id);
  let main = Array.to_list prog.Ir.methods |> List.find (fun m -> m.Ir.pretty = "Main.main") in
  check Alcotest.bool "main reachable" true
    (Pts_andersen.Solver.is_reachable pl.Pts_clients.Pipeline.solver main.Ir.id)

let test_on_the_fly_dispatch_growth () =
  (* B only becomes a receiver through a container round-trip: dispatch
     must discover B.m even though the receiver's static type is A *)
  let pl =
    pipeline
      {|
class A { Object m() { return new A(); } }
class B extends A { Object m() { return new B(); } }
class Box { Object v; Box() {} void put(Object x) { this.v = x; } Object take() { return this.v; } }
class Main {
  static void main() {
    Box box = new Box();
    box.put(new B());
    A recv = (A) box.take();
    Object r = recv.m();
  }
}|}
  in
  check (Alcotest.list Alcotest.string) "discovered B.m" [ "B" ]
    (site_classes pl (pts_of pl "Main.main" "r"))

let test_soundness_vs_demand_on_suite () =
  (* Andersen over-approximates every context-sensitive demand answer *)
  let pl = Pts_workload.Suite.pipeline "jack" in
  let pag = pl.Pts_clients.Pipeline.pag in
  let dynsum = Dynsum.create pag in
  let queries = Pts_clients.Nullderef.queries pl in
  List.iteri
    (fun i q ->
      if i mod 7 = 0 then begin
        let node = q.Pts_clients.Client.q_node in
        match Dynsum.points_to dynsum node with
        | Query.Exceeded -> ()
        | Query.Resolved ts ->
          let ander = Pts_andersen.Solver.points_to pl.Pts_clients.Pipeline.solver node in
          List.iter
            (fun site ->
              check Alcotest.bool "demand within Andersen" true (Pts_util.Bitset.mem ander site))
            (Query.sites ts)
      end)
    queries

(* ---------------------- cycles without collapse ---------------------- *)

(* Every member of a copy cycle ends with the union of the members' sets,
   both in the solver's answer and in the installed oracle row. *)
let check_cycle pl members expect =
  let pag = pl.Pts_clients.Pipeline.pag in
  List.iter
    (fun v ->
      check (Alcotest.list Alcotest.string) (v ^ " holds the union") expect
        (site_classes pl (pts_of pl "Main.main" v));
      let node = Pts_clients.Pipeline.find_local pl ~meth_pretty:"Main.main" ~var:v in
      let row = Pts_util.Bitset.create () in
      Array.iteri
        (fun site _ -> if Pag.oracle_mem pag node site then ignore (Pts_util.Bitset.add row site))
        pl.Pts_clients.Pipeline.prog.Ir.allocs;
      check (Alcotest.list Alcotest.string) (v ^ " oracle row") expect (site_classes pl row))
    members

let test_copy_cycle () =
  let pl =
    pipeline
      {|
class A {} class B {}
class Main {
  static void main() {
    Object x = new A();
    Object y = new B();
    x = y;
    y = x;
  }
}|}
  in
  check_cycle pl [ "x"; "y" ] [ "A"; "B" ]

let test_late_edge_into_cycle () =
  (* x -> y -> z -> x is a cycle from the start; the exit edge of B.m into
     y appears only once the receiver's set grows through the box *)
  let pl =
    pipeline
      {|
class A { Object m() { return new A(); } }
class B extends A { Object m() { return new C(); } }
class C {} class D {}
class Box { Object v; Box() {} void put(Object x) { this.v = x; } Object take() { return this.v; } }
class Main {
  static void main() {
    Object x = new D();
    Object y = x;
    Object z = y;
    x = z;
    Box box = new Box();
    box.put(new B());
    A recv = (A) box.take();
    y = recv.m();
  }
}|}
  in
  check_cycle pl [ "x"; "y"; "z" ] [ "C"; "D" ]

(* ----------------------- the pinned suite solution ----------------------- *)

(* One digest per suite program over everything the solver hands on: every
   PAG node's oracle row, the call-graph edges (sorted, since insertion
   order follows discovery order), the recursive call sites, the reachable
   methods and the PAG's edge counts. *)
let solution_digest (pl : Pts_clients.Pipeline.t) =
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  let b = Buffer.create 65536 in
  let n_sites = Array.length prog.Ir.allocs in
  for n = 0 to Pag.node_count pag - 1 do
    if not (Pag.oracle_row_empty pag n) then begin
      Printf.bprintf b "n%d:" n;
      for site = 0 to n_sites - 1 do
        if Pag.oracle_mem pag n site then Printf.bprintf b " %d" site
      done;
      Buffer.add_char b '\n'
    end
  done;
  let edges = ref [] in
  Callgraph.iter_edges pl.Pts_clients.Pipeline.callgraph (fun ~site ~caller ~target ->
      edges := (site, caller, target) :: !edges);
  List.iter
    (fun (s, c, t) -> Printf.bprintf b "e %d %d %d\n" s c t)
    (List.sort compare !edges);
  Array.iteri
    (fun site _ -> if Pag.is_recursive_site pag site then Printf.bprintf b "r %d\n" site)
    prog.Ir.calls;
  List.iter
    (fun m -> Printf.bprintf b "m %d\n" m)
    (Pts_andersen.Solver.reachable_methods pl.Pts_clients.Pipeline.solver);
  let c = Pag.edge_counts pag in
  Printf.bprintf b "c %d %d %d %d %d %d %d\n" c.Pag.n_new c.Pag.n_assign c.Pag.n_load c.Pag.n_store
    c.Pag.n_entry c.Pag.n_exit c.Pag.n_assign_global;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_digests =
  [
    ("jack", "06c46645bf3a9158a315442729c35175");
    ("javac", "d053156eb6ab515558b9b123c4b63d4b");
    ("soot-c", "b922f03307576c709976826cb905b903");
    ("bloat", "49f2aca7316e2dccf00883b691ed3efc");
    ("jython", "e554b4a6d8c8e8ec0ee358ce104d13ff");
    ("avrora", "6ed221df72141e4d58916b734aaca8c5");
    ("batik", "d22e8ed388234f5e521a4a89cacb4f01");
    ("luindex", "8f1328d6ae4716d43f04bdad28c38bc0");
    ("xalan", "6e77acf0a814b61ff5ea300fcf348de1");
  ]

let test_pinned_solution () =
  List.iter
    (fun name ->
      let pl = Pts_workload.Suite.pipeline name in
      check Alcotest.bool (name ^ " has an oracle") true
        (Pag.has_oracle pl.Pts_clients.Pipeline.pag);
      check Alcotest.string (name ^ " solution digest") (List.assoc name pinned_digests)
        (solution_digest pl))
    Pts_workload.Suite.names

(* ------------------- oracle vs the Andersen solver ------------------- *)

(* The oracle installed on the PAG is the solver's own answer, packed:
   every row predicate must agree with [Solver.points_to], and the
   strong-update singleton test must withhold only summary sites. *)
let prop_oracle_matches_solver =
  QCheck.Test.make ~name:"oracle rows match Solver.points_to" ~count:8
    (Support.config_arbitrary ~name:"oracle-prop")
    (fun cfg ->
      let pl = Support.build cfg in
      let pag = pl.Pts_clients.Pipeline.pag in
      let solver = pl.Pts_clients.Pipeline.solver in
      let sites = ref 0 in
      for n = 0 to Pag.node_count pag - 1 do
        if Pag.is_obj pag n then incr sites
      done;
      let sites = !sites in
      let ok = ref (Pag.has_oracle pag) in
      for n = 0 to Pag.node_count pag - 1 do
        let row = Pts_andersen.Solver.points_to solver n in
        let card = ref 0 in
        let only = ref (-1) in
        for site = 0 to sites - 1 do
          let expect = Pts_util.Bitset.mem row site in
          if expect then begin
            incr card;
            only := site
          end;
          if Pag.oracle_mem pag n site <> expect then ok := false
        done;
        if Pag.oracle_row_empty pag n <> (!card = 0) then ok := false;
        (match Pag.oracle_singleton pag n with
        | Some s ->
          if not (!card = 1 && Pts_util.Bitset.mem row s && not (Pag.site_is_summary pag s)) then
            ok := false
        | None ->
          (* a singleton row must only be withheld for summary sites *)
          if !card = 1 && not (Pag.site_is_summary pag !only) then ok := false)
      done;
      !ok)

let () =
  Alcotest.run "andersen"
    [
      ( "solver",
        [
          Alcotest.test_case "direct alloc" `Quick test_direct_alloc;
          Alcotest.test_case "copy chain" `Quick test_copy_chain;
          Alcotest.test_case "field sensitivity" `Quick test_field_sensitivity;
          Alcotest.test_case "context-insensitive merge" `Quick test_context_insensitive_merge;
          Alcotest.test_case "globals" `Quick test_globals_flow;
          Alcotest.test_case "params and returns" `Quick test_parameters_and_returns;
          Alcotest.test_case "unreachable skipped" `Quick test_unreachable_methods_skipped;
          Alcotest.test_case "on-the-fly dispatch" `Quick test_on_the_fly_dispatch_growth;
          Alcotest.test_case "soundness oracle" `Quick test_soundness_vs_demand_on_suite;
          Alcotest.test_case "copy cycle" `Quick test_copy_cycle;
          Alcotest.test_case "late edge into a cycle" `Quick test_late_edge_into_cycle;
          Alcotest.test_case "pinned suite solution" `Quick test_pinned_solution;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest ~long:false prop_oracle_matches_solver ]);
    ]
