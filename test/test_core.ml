(* Tests for the demand-driven engines: NOREFINE, REFINEPTS, DYNSUM,
   STASUM, plus the PPTA and field-stack machinery. *)

let check = Alcotest.check

module Hstack = Pts_util.Hstack

let pipeline src = Pts_clients.Pipeline.of_source src

let classes_of (pl : Pts_clients.Pipeline.t) outcome =
  let prog = pl.Pts_clients.Pipeline.prog in
  match outcome with
  | Query.Exceeded -> [ "<exceeded>" ]
  | Query.Resolved ts ->
    Query.sites ts
    |> List.map (fun site -> Types.class_name prog.Ir.ctable prog.Ir.allocs.(site).Ir.alloc_cls)
    |> List.sort_uniq compare

let all_engines ?conf (pl : Pts_clients.Pipeline.t) =
  Pts_clients.Pipeline.engines ?conf ~with_stasum:true pl

(* ------------------------------ Fstack ------------------------------ *)

let conf_widen = Engine.conf ~max_field_depth:4 ()

let test_fstack_symbols () =
  check Alcotest.bool "load/store symbols differ" true (Fstack.load_sym 3 <> Fstack.store_sym 3);
  check Alcotest.int "field of load sym" 3 (Fstack.sym_field (Fstack.load_sym 3));
  check Alcotest.int "field of store sym" 3 (Fstack.sym_field (Fstack.store_sym 3));
  check Alcotest.bool "polarity" true (Fstack.sym_is_load (Fstack.load_sym 1));
  check Alcotest.bool "polarity store" false (Fstack.sym_is_load (Fstack.store_sym 1))

let test_fstack_push_pop () =
  let f =
    match Fstack.push conf_widen Hstack.empty (Fstack.load_sym 1) with
    | Some f -> f
    | None -> Alcotest.fail "push cut unexpectedly"
  in
  (match Fstack.pop_match f (Fstack.load_sym 1) with
  | Some f' -> check Alcotest.bool "pop matches" true (Hstack.is_empty f')
  | None -> Alcotest.fail "pop should match");
  check Alcotest.bool "mismatched field" true (Fstack.pop_match f (Fstack.load_sym 2) = None);
  check Alcotest.bool "mismatched polarity" true (Fstack.pop_match f (Fstack.store_sym 1) = None)

let test_fstack_repeat_cut () =
  let push f g = Fstack.push conf_widen f (Fstack.load_sym g) in
  let f1 = Option.get (push Hstack.empty 5) in
  let f2 = Option.get (push f1 5) in
  (* default max_field_repeat = 2: a third occurrence is cut *)
  check Alcotest.bool "third repeat cut" true (push f2 5 = None);
  check Alcotest.bool "other fields fine" true (push f2 6 <> None)

let test_fstack_widen () =
  let rec fill f g n =
    if n = 0 then f else fill (Option.get (Fstack.push conf_widen f (Fstack.load_sym g))) (g + 1) (n - 1)
  in
  let f = fill Hstack.empty 0 4 in
  let w = Option.get (Fstack.push conf_widen f (Fstack.load_sym 99)) in
  check Alcotest.bool "bounded" true (Hstack.depth w <= 4);
  (* the unknown tail matches any pop *)
  let rec drain f n = if n = 0 then f else drain (Option.get (Fstack.pop_match f (Hstack.peek f |> Option.get))) (n - 1) in
  let tail = drain w (Hstack.depth w - 1) in
  check Alcotest.bool "tail may be empty" true (Fstack.may_be_empty tail);
  check Alcotest.bool "tail still matches pops" true (Fstack.pop_match tail (Fstack.load_sym 123) <> None)

(* ---------------------------- Fieldbased ---------------------------- *)

let test_fieldbased_pts_of_field () =
  let pl =
    pipeline
      {|
class Box { Object v; Box() {} }
class A {} class B {}
class Main {
  static void main() {
    Box x = new Box();
    x.v = new A();
    Box y = new Box();
    y.v = new B();
    Object r = x.v;
  }
}|}
  in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  let fb = Fieldbased.create pag in
  let fld =
    match Types.lookup_field prog.Ir.ctable (Option.get (Types.find_class prog.Ir.ctable "Box")) "v" with
    | Some (`Instance f) -> f.Types.fld_id
    | _ -> Alcotest.fail "no field"
  in
  let classes =
    Fieldbased.pts_of_field fb fld
    |> List.map (fun s -> Types.class_name prog.Ir.ctable prog.Ir.allocs.(s).Ir.alloc_cls)
    |> List.sort_uniq compare
  in
  (* field-based = both boxes' contents merged: that is the point *)
  check (Alcotest.list Alcotest.string) "merged over instances" [ "A"; "B" ] classes;
  (* and the flow side reaches the load destination r *)
  let r = Pts_clients.Pipeline.find_local pl ~meth_pretty:"Main.main" ~var:"r" in
  check Alcotest.bool "flows reach the load dst" true (List.mem r (Fieldbased.flows_of_field fb fld))

let test_fieldbased_overapproximates_exact () =
  (* field-based pts of a field contains every exact demand answer read
     through that field *)
  let pl = Pts_workload.Suite.pipeline "jack" in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  let fb = Fieldbased.create pag in
  let dynsum = Dynsum.create pag in
  let arr = (Types.arr_field prog.Ir.ctable).Types.fld_id in
  let fb_sites = Fieldbased.pts_of_field fb arr in
  List.iteri
    (fun i (base, dst) ->
      ignore base;
      if i mod 5 = 0 then
        match Dynsum.points_to dynsum dst with
        | Query.Exceeded -> ()
        | Query.Resolved ts ->
          (* dst's exact answer flows through arr and possibly other edges;
             restrict to targets that can only come from arr loads is hard,
             so check the weaker inclusion on nodes whose ONLY in-edges are
             arr loads *)
          if
            List.for_all
              (fun side -> Support.row pag side dst = [])
              Pag.View.[ assign_in; new_in; global_in; entry_in; exit_in ]
            && List.for_all (fun (f, _) -> f = arr) (Support.row pag Pag.View.load_in dst)
          then
            List.iter
              (fun s -> check Alcotest.bool "fb covers exact" true (List.mem s fb_sites))
              (Query.sites ts))
    (Pag.loads_of_field pag arr)

(* ------------------------------ Budget ------------------------------ *)

let test_budget () =
  let b = Budget.create ~limit:3 in
  Budget.start_query b;
  Budget.step b;
  Budget.step b;
  Budget.step b;
  (match Budget.step b with
  | exception Budget.Out_of_budget -> ()
  | () -> Alcotest.fail "limit not enforced");
  check Alcotest.int "total keeps counting" 4 (Budget.total_steps b);
  Budget.start_query b;
  Budget.step b;
  check Alcotest.int "per-query reset" 1 (Budget.steps_this_query b)

let test_budget_exceeded_outcome () =
  let pl = pipeline Pts_workload.Figure2.source in
  let conf = Engine.conf ~budget_limit:5 () in
  let dynsum = Dynsum.create ~conf pl.Pts_clients.Pipeline.pag in
  match Dynsum.points_to dynsum (Pts_workload.Figure2.s1 pl) with
  | Query.Exceeded -> ()
  | Query.Resolved _ -> Alcotest.fail "tiny budget should exceed"

(* --------------------------- Figure 2 ------------------------------- *)

let test_figure2_all_engines () =
  let pl = pipeline Pts_workload.Figure2.source in
  let s1 = Pts_workload.Figure2.s1 pl in
  let s2 = Pts_workload.Figure2.s2 pl in
  List.iter
    (fun (e : Engine.engine) ->
      check (Alcotest.list Alcotest.string)
        (e.Engine.name ^ " s1")
        [ "Integer" ]
        (classes_of pl (e.Engine.points_to s1));
      check (Alcotest.list Alcotest.string)
        (e.Engine.name ^ " s2")
        [ "String" ]
        (classes_of pl (e.Engine.points_to s2)))
    (all_engines pl)

(* ------------------------ Small scenarios --------------------------- *)

(* each scenario: source, query (method, var), expected classes *)
let scenarios =
  [
    ( "direct-alloc",
      "class A {} class Main { static void main() { A a = new A(); } }",
      ("Main.main", "a"),
      [ "A" ] );
    ( "through-box",
      {|
class Box { Object v; Box() {} void put(Object x) { this.v = x; } Object take() { return this.v; } }
class A {} class B {}
class Main {
  static void main() {
    Box b1 = new Box();
    b1.put(new A());
    Box b2 = new Box();
    b2.put(new B());
    Object r = b1.take();
  }
}|},
      ("Main.main", "r"),
      [ "A" ] );
    ( "nested-boxes",
      {|
class Box { Object v; Box() {} void put(Object x) { this.v = x; } Object take() { return this.v; } }
class A {}
class Main {
  static void main() {
    Box inner = new Box();
    inner.put(new A());
    Box outer = new Box();
    outer.put(inner);
    Box back = (Box) outer.take();
    Object r = back.take();
  }
}|},
      ("Main.main", "r"),
      [ "A" ] );
    ( "global-roundtrip",
      {|
class A {}
class G { static Object slot; }
class Main { static void main() { G.slot = new A(); Object r = G.slot; } }|},
      ("Main.main", "r"),
      [ "A" ] );
    ( "call-chain",
      {|
class A {}
class U {
  static Object p1(Object x) { return U.p2(x); }
  static Object p2(Object x) { return U.p3(x); }
  static Object p3(Object x) { return x; }
}
class Main { static void main() { Object r = U.p1(new A()); } }|},
      ("Main.main", "r"),
      [ "A" ] );
    ( "context-separation",
      {|
class A {} class B {}
class Id { Object id(Object x) { return x; } }
class Main {
  static void main() {
    Id i = new Id();
    Object ra = i.id(new A());
    Object rb = i.id(new B());
  }
}|},
      ("Main.main", "ra"),
      [ "A" ] );
    ( "list-recursion",
      {|
class Node { Object val; Node next; Node(Object v) { this.val = v; } }
class List {
  Node head;
  List() {}
  void push(Object v) { Node n = new Node(v); n.next = this.head; this.head = n; }
  Object find(Node cur, int k) { if (cur == null) { return null; } if (k == 0) { return cur.val; } return this.find(cur.next, k - 1); }
  Object nth(int k) { return this.find(this.head, k); }
}
class A {}
class Main { static void main() { List l = new List(); l.push(new A()); Object r = l.nth(0); } }|},
      ("Main.main", "r"),
      [ "$Null"; "A" ] );
    ( "array-roundtrip",
      {|
class A {}
class Main { static void main() { Object[] arr = new Object[4]; arr[0] = new A(); Object r = arr[1]; } }|},
      ("Main.main", "r"),
      [ "A" ] );
    ( "null-tracking",
      {|
class A {}
class Main { static void main() { Object x = null; Object y = x; } }|},
      ("Main.main", "y"),
      [ "$Null" ] );
    ( "virtual-override",
      {|
class A { Object mk() { return new A(); } }
class B extends A { Object mk() { return new B(); } }
class Main { static void main() { A o = new B(); Object r = o.mk(); } }|},
      ("Main.main", "r"),
      [ "B" ] );
  ]

let scenario_tests =
  List.map
    (fun (name, src, (meth, var), expected) ->
      Alcotest.test_case name `Quick (fun () ->
          let pl = pipeline src in
          let node = Pts_clients.Pipeline.find_local pl ~meth_pretty:meth ~var in
          List.iter
            (fun (e : Engine.engine) ->
              check (Alcotest.list Alcotest.string)
                (name ^ "/" ^ e.Engine.name)
                expected
                (classes_of pl (e.Engine.points_to node)))
            (all_engines pl)))
    scenarios

(* ------------------------------- PPTA ------------------------------- *)

let test_ppta_figure2_retget () =
  (* the paper's example: ppta(ret_get, [], S1) must record the frontier
     tuple at this_get with the pending loads of arr then elems *)
  let pl = pipeline Pts_workload.Figure2.source in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  let get = Array.to_list prog.Ir.methods |> List.find (fun m -> m.Ir.pretty = "Vector.get") in
  let ret_var =
    List.filter_map (function Ir.Return { src = Some v } -> Some v | _ -> None) get.Ir.body
    |> List.hd
  in
  let node = Pag.local_node pag ~meth:get.Ir.id ~var:ret_var in
  let budget = Budget.unlimited () in
  let summary = Ppta.compute pag Conf.default budget node Hstack.empty Ppta.S1 in
  check (Alcotest.list Alcotest.int) "no objects locally" [] summary.Ppta.objs;
  check Alcotest.bool "has frontier tuples" true (summary.Ppta.tuples <> []);
  (* one frontier must be this_get with a two-deep load stack *)
  let this_node = Pag.local_node pag ~meth:get.Ir.id ~var:(Option.get get.Ir.this_var) in
  check Alcotest.bool "frontier at this_get with depth-2 stack" true
    (List.exists
       (fun (n, f, s) -> n = this_node && Hstack.depth f = 2 && s = Ppta.S1)
       summary.Ppta.tuples)

let test_ppta_context_independence () =
  (* the same summary must be returned regardless of how it is reached:
     compute twice, compare structurally *)
  let pl = pipeline Pts_workload.Figure2.source in
  let pag = pl.Pts_clients.Pipeline.pag in
  let s1 = Pts_workload.Figure2.s1 pl in
  let budget = Budget.unlimited () in
  let a = Ppta.compute pag Conf.default budget s1 Hstack.empty Ppta.S1 in
  let b = Ppta.compute pag Conf.default budget s1 Hstack.empty Ppta.S1 in
  check Alcotest.int "same objs" (List.length a.Ppta.objs) (List.length b.Ppta.objs);
  check Alcotest.int "same tuples" (List.length a.Ppta.tuples) (List.length b.Ppta.tuples)

(* ---------------------------- footprints ---------------------------- *)

(* Node sets whose span (highest minus lowest id) sits at the one-word
   boundary — 62, 63 and 64 ids — or reaches a few mask words, as the
   widest PPTA footprints do (475 ids on the paper's batches); the lowest
   and highest ids are always members, so the span is exact. *)
let node_set_gen =
  let open QCheck.Gen in
  let* lo = int_range 0 3000 in
  let* span =
    oneof [ int_range 60 66; int_range 120 130; int_range 185 192; int_range 0 520; return 0 ]
  in
  let* inner = list_size (int_range 0 24) (int_range lo (lo + span)) in
  let+ order = shuffle_l ((lo + span) :: lo :: inner) in
  order

let node_set_arb =
  QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(frequency [ (1, return []); (20, node_set_gen) ])

let sorted_nodes l = List.sort_uniq Int.compare l

let test_footprint_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"footprint nodes round-trip to sort_uniq" ~count:500 node_set_arb
       (fun l -> Footprint.nodes (Footprint.of_nodes l) = sorted_nodes l))

(* Dirty ids around and inside the footprint's span, past its highest
   node, negative ones (ignored), sometimes none at all, and sometimes
   exactly one footprint node, which only that node's bit can catch. *)
let stale_arb =
  let open QCheck.Gen in
  let gen =
    let* nodes = frequency [ (1, return []); (20, node_set_gen) ] in
    let lo, hi =
      match sorted_nodes nodes with [] -> (0, 64) | l -> (List.hd l, List.nth l (List.length l - 1))
    in
    let near = int_range (max 0 (lo - 70)) (hi + 200) in
    let scattered =
      list_size (int_range 0 6)
        (frequency [ (6, near); (1, int_range (-5) (-1)); (1, int_range (hi + 1) (hi + 140)) ])
    in
    let+ dirty =
      match nodes with
      | [] -> scattered
      | _ -> frequency [ (2, scattered); (1, map (fun v -> [ v ]) (oneofl nodes)) ]
    in
    (nodes, dirty)
  in
  QCheck.make ~print:QCheck.Print.(pair (list int) (list int)) gen

let test_footprint_stale_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Footprint.stale equals the list model" ~count:1000 stale_arb
       (fun (nodes, dirty) ->
         let model = nodes = [] || List.exists (fun v -> List.mem v dirty) nodes in
         Footprint.stale dirty (Footprint.of_nodes nodes) = model))

(* [of_pairs] reads the nodes of one tag's pairs out of the low bits. *)
let test_footprint_of_pairs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"footprint of a visited set" ~count:300
       QCheck.(pair node_set_arb (list (pair (int_bound 3) small_nat)))
       (fun (nodes, noise) ->
         let mask = (1 lsl 12) - 1 in
         let s = Pts_util.Pairset.create 4 in
         List.iteri (fun i v -> ignore (Pts_util.Pairset.add s (v lor ((i mod 5) lsl 12)) 0)) nodes;
         List.iter (fun (tag, a) -> if tag > 0 then ignore (Pts_util.Pairset.add s a tag)) noise;
         Footprint.nodes (Footprint.of_pairs s ~snd:0 ~mask) = sorted_nodes nodes))

let test_footprint_empty () =
  check (Alcotest.list Alcotest.int) "empty has no nodes" [] (Footprint.nodes Footprint.empty);
  check Alcotest.bool "empty is always stale" true (Footprint.stale [] Footprint.empty);
  check Alcotest.bool "a footprint meets no empty dirty set" false
    (Footprint.stale [] (Footprint.of_nodes [ 5 ]));
  match Footprint.of_nodes [ 3; -1 ] with
  | _ -> Alcotest.fail "negative node accepted"
  | exception Invalid_argument _ -> ()

(* The PPTA's own footprint is the distinct nodes its walk visited: the
   root always, and on Figure 2's ret_get no node outside its method. *)
let test_ppta_footprint () =
  let pl = pipeline Pts_workload.Figure2.source in
  let pag = pl.Pts_clients.Pipeline.pag in
  let s1 = Pts_workload.Figure2.s1 pl in
  let summary = Ppta.compute pag Conf.default (Budget.unlimited ()) s1 Hstack.empty Ppta.S1 in
  let nodes = Footprint.nodes summary.Ppta.fp in
  check Alcotest.bool "root in footprint" true (List.mem s1 nodes);
  check Alcotest.bool "frontier nodes in footprint" true
    (List.for_all (fun (n, _, _) -> List.mem n nodes) summary.Ppta.tuples);
  check Alcotest.bool "stale when the root is dirty" true (Footprint.stale [ s1 ] summary.Ppta.fp)

(* ------------------------------ DYNSUM ------------------------------ *)

let test_dynsum_cache_reuse () =
  let pl = pipeline Pts_workload.Figure2.source in
  let dynsum = Dynsum.create pl.Pts_clients.Pipeline.pag in
  let s1 = Pts_workload.Figure2.s1 pl in
  let s2 = Pts_workload.Figure2.s2 pl in
  ignore (Dynsum.points_to dynsum s1);
  let steps_s1 = Budget.total_steps (Dynsum.budget dynsum) in
  let summaries_after_s1 = Dynsum.summary_count dynsum in
  ignore (Dynsum.points_to dynsum s2);
  let steps_s2 = Budget.total_steps (Dynsum.budget dynsum) - steps_s1 in
  check Alcotest.bool "s2 cheaper than s1 thanks to reuse" true (steps_s2 < steps_s1);
  check Alcotest.bool "cache grew or stayed" true (Dynsum.summary_count dynsum >= summaries_after_s1);
  let hits = Pts_util.Stats.get (Dynsum.stats dynsum) "summary_hits" in
  check Alcotest.bool "cache hits occurred" true (hits > 0)

let test_dynsum_clear_cache () =
  let pl = pipeline Pts_workload.Figure2.source in
  let dynsum = Dynsum.create pl.Pts_clients.Pipeline.pag in
  ignore (Dynsum.points_to dynsum (Pts_workload.Figure2.s1 pl));
  check Alcotest.bool "cache populated" true (Dynsum.summary_count dynsum > 0);
  Dynsum.clear_cache dynsum;
  check Alcotest.int "cache cleared" 0 (Dynsum.summary_count dynsum)

let test_dynsum_results_stable_under_reuse () =
  (* answering the same query twice (cold then warm) gives equal results *)
  let pl = Pts_workload.Suite.pipeline "jack" in
  let dynsum = Dynsum.create pl.Pts_clients.Pipeline.pag in
  let queries = Pts_clients.Safecast.queries pl in
  let first = List.map (fun q -> Dynsum.points_to dynsum q.Pts_clients.Client.q_node) queries in
  let second = List.map (fun q -> Dynsum.points_to dynsum q.Pts_clients.Client.q_node) queries in
  List.iter2
    (fun a b -> check Alcotest.bool "idempotent" true (Query.equal_outcome a b))
    first second

let test_dynsum_query_order_irrelevant () =
  let pl = Pts_workload.Suite.pipeline "jack" in
  let queries = Pts_clients.Safecast.queries pl in
  let forward = Dynsum.create pl.Pts_clients.Pipeline.pag in
  let backward = Dynsum.create pl.Pts_clients.Pipeline.pag in
  let r1 = List.map (fun q -> Dynsum.points_to forward q.Pts_clients.Client.q_node) queries in
  let r2 =
    List.rev_map (fun q -> Dynsum.points_to backward q.Pts_clients.Client.q_node) (List.rev queries)
  in
  List.iter2
    (fun a b -> check Alcotest.bool "order-independent" true (Query.equal_outcome a b))
    r1 r2

(* A tier holding the summaries one engine derived for [queries]. *)
let tier_after pag queries =
  let d = Dynsum.create pag in
  let answers = List.map (fun q -> Dynsum.points_to d q.Pts_clients.Client.q_node) queries in
  let tier = Dynsum.base_create () in
  ignore (Dynsum.base_add tier (Dynsum.snapshot d));
  (tier, answers)

(* [load_base] into [tier] must fail and leave it as it was. *)
let check_refused what tier pag path =
  let before = Dynsum.base_length tier in
  (match Dynsum.load_base tier pag path with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s accepted" what);
  check Alcotest.int "tier untouched" before (Dynsum.base_length tier)

let with_cache_file f =
  let path = Filename.temp_file "dynsum" ".cache" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_dynsum_cache_persistence () =
  let pl = Pts_workload.Suite.pipeline "jack" in
  let pag = pl.Pts_clients.Pipeline.pag in
  let queries = Pts_clients.Safecast.queries pl in
  let warm, cold_answers = tier_after pag queries in
  with_cache_file (fun path ->
      Dynsum.save_base warm pag path;
      let restored = Dynsum.base_create () in
      (match Dynsum.load_base restored pag path with
      | Ok n -> check Alcotest.int "every entry loaded" (Dynsum.base_length warm) n
      | Error e -> Alcotest.fail e);
      check Alcotest.int "tier size restored" (Dynsum.base_length warm) (Dynsum.base_length restored);
      (* an engine over the restored tier answers identically and without
         recomputation *)
      let d = Dynsum.create pag in
      Dynsum.set_base d restored;
      let restored_answers = List.map (fun q -> Dynsum.points_to d q.Pts_clients.Client.q_node) queries in
      List.iter2
        (fun a b -> check Alcotest.bool "same answers after reload" true (Query.equal_outcome a b))
        cold_answers restored_answers;
      check Alcotest.int "no recomputation" 0 (Pts_util.Stats.get (Dynsum.stats d) "summary_misses");
      (* loading against a different PAG is refused *)
      let other = Pts_workload.Suite.pipeline "javac" in
      check_refused "fingerprint mismatch" (Dynsum.base_create ()) other.Pts_clients.Pipeline.pag path)

let test_dynsum_cache_corrupt_file () =
  let pl = pipeline Pts_workload.Figure2.source in
  with_cache_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "not a cache");
      check_refused "corrupt file" (Dynsum.base_create ()) pl.Pts_clients.Pipeline.pag path)

let test_dynsum_cache_missing_file () =
  let pl = pipeline Pts_workload.Figure2.source in
  let pag = pl.Pts_clients.Pipeline.pag in
  let d = Dynsum.create pag in
  ignore (Dynsum.points_to d (Pts_workload.Figure2.s1 pl));
  let tier = Dynsum.base_create () in
  ignore (Dynsum.base_add tier (Dynsum.snapshot d));
  check Alcotest.bool "tier populated" true (Dynsum.base_length tier > 0);
  check_refused "missing file" tier pag "/nonexistent/dynsum.cache"

let test_dynsum_cache_truncated_file () =
  (* a payload cut off mid-marshal must be rejected atomically: the tier
     keeps its pre-load contents *)
  let pl = Pts_workload.Suite.pipeline "jack" in
  let pag = pl.Pts_clients.Pipeline.pag in
  let queries = Pts_clients.Safecast.queries pl in
  let warm, _ = tier_after pag queries in
  with_cache_file (fun path ->
      Dynsum.save_base warm pag path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      check Alcotest.bool "cache file non-trivial" true (String.length full > 64);
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub full 0 (String.length full / 2)));
      let victim, _ = tier_after pag [ List.hd queries ] in
      check_refused "truncated file" victim pag path;
      (* the tier still serves an engine after the failed load *)
      let d = Dynsum.create pag in
      Dynsum.set_base d victim;
      ignore (Dynsum.points_to d (List.hd queries).Pts_clients.Client.q_node);
      check Alcotest.bool "tier still hit" true (Dynsum.base_hits victim > 0))

(* A file with its real header and keys but out-of-range payloads —
   an allocation site and a frontier node past the PAG — decodes
   cleanly, so only the range check stands between it and an engine
   indexing out of bounds. *)
type image = int * int list * int * int list * (int * int list * int) list * int list

let test_dynsum_cache_out_of_range_payload () =
  let pl = Pts_workload.Suite.pipeline "jack" in
  let pag = pl.Pts_clients.Pipeline.pag in
  let warm, _ = tier_after pag (Pts_clients.Safecast.queries pl) in
  with_cache_file (fun path ->
      Dynsum.save_base warm pag path;
      let magic, fp, ghash, epoch, (images : image list) =
        (In_channel.with_open_bin path Marshal.from_channel
          : string * (int * int * int * int * int * int * int * int) * int * int * image list)
      in
      check Alcotest.bool "tier saved" true (images <> []);
      let bad =
        List.map
          (fun (n, syms, st, _, _, fp) -> (n, syms, st, [ 99999 ], [ (88888888, [], 1) ], fp))
          images
      in
      Out_channel.with_open_bin path (fun oc ->
          Marshal.to_channel oc (magic, fp, ghash, epoch, bad) []);
      let victim, _ = tier_after pag [ List.hd (Pts_clients.Safecast.queries pl) ] in
      check_refused "out-of-range payload" victim pag path)

let test_dynsum_cache_fingerprint_no_mutation () =
  (* the fingerprint-mismatch refusal must also leave the target tier
     alone *)
  let pl = Pts_workload.Suite.pipeline "jack" in
  let pag = pl.Pts_clients.Pipeline.pag in
  let warm, _ = tier_after pag (Pts_clients.Safecast.queries pl) in
  with_cache_file (fun path ->
      Dynsum.save_base warm pag path;
      let other = Pts_workload.Suite.pipeline "javac" in
      let opag = other.Pts_clients.Pipeline.pag in
      let wrong, _ = tier_after opag [ List.hd (Pts_clients.Safecast.queries other) ] in
      check Alcotest.bool "target tier populated" true (Dynsum.base_length wrong > 0);
      check_refused "fingerprint mismatch" wrong opag path)

(* ------------------------------ STASUM ------------------------------ *)

let test_stasum_covers_queries () =
  let pl = pipeline Pts_workload.Figure2.source in
  let stasum = Stasum.create pl.Pts_clients.Pipeline.pag in
  check Alcotest.bool "not truncated" false (Stasum.truncated stasum);
  ignore (Stasum.points_to stasum (Pts_workload.Figure2.s1 pl));
  ignore (Stasum.points_to stasum (Pts_workload.Figure2.s2 pl));
  check Alcotest.int "no online misses" 0 (Pts_util.Stats.get (Stasum.stats stasum) "summary_misses")

let test_stasum_computes_more_summaries_than_dynsum () =
  let pl = Pts_workload.Suite.pipeline "jack" in
  let pag = pl.Pts_clients.Pipeline.pag in
  let stasum = Stasum.create pag in
  let dynsum = Dynsum.create pag in
  let queries = Pts_clients.Safecast.queries pl in
  List.iter (fun q -> ignore (Dynsum.points_to dynsum q.Pts_clients.Client.q_node)) queries;
  check Alcotest.bool "dynsum needs fewer summaries" true
    (Dynsum.summary_count dynsum < Stasum.summary_count stasum)

let test_stasum_truncation_path () =
  (* a tiny cap forces truncation; queries must still be answered (missing
     summaries are computed lazily and counted) *)
  let pl = Pts_workload.Suite.pipeline "jack" in
  let stasum = Stasum.create ~max_summaries:10 pl.Pts_clients.Pipeline.pag in
  check Alcotest.bool "truncated" true (Stasum.truncated stasum);
  let queries = Pts_clients.Safecast.queries pl in
  let norefine = Sb.create Sb.No_refine pl.Pts_clients.Pipeline.pag in
  List.iteri
    (fun i q ->
      if i mod 5 = 0 then begin
        let a = Stasum.points_to stasum q.Pts_clients.Client.q_node in
        let b = Sb.points_to norefine q.Pts_clients.Client.q_node in
        match (a, b) with
        | Query.Resolved _, Query.Resolved _ ->
          check Alcotest.bool "truncated stasum still exact" true (Query.equal_sites a b)
        | _ -> ()
      end)
    queries;
  check Alcotest.bool "lazy misses recorded" true
    (Pts_util.Stats.get (Stasum.stats stasum) "summary_misses" > 0)

let test_alias_unknown_on_budget () =
  let pl = Pts_workload.Figure2.pipeline () in
  let conf = Engine.conf ~budget_limit:2 () in
  let engine = Engine.dynsum (Dynsum.create ~conf pl.Pts_clients.Pipeline.pag) in
  let s1 = Pts_workload.Figure2.s1 pl in
  let s2 = Pts_workload.Figure2.s2 pl in
  check Alcotest.bool "unknown under tiny budget" true
    (Alias.may_alias pl.Pts_clients.Pipeline.pag engine s1 s2 = Alias.Unknown)

let test_engine_conf_variants () =
  (* every configuration combination still answers Figure 2 exactly *)
  let pl = Pts_workload.Figure2.pipeline () in
  let s1 = Pts_workload.Figure2.s1 pl in
  List.iter
    (fun conf ->
      let dynsum = Dynsum.create ~conf pl.Pts_clients.Pipeline.pag in
      match Dynsum.points_to dynsum s1 with
      | Query.Resolved ts -> check Alcotest.int "one target" 1 (List.length (Query.sites ts))
      | Query.Exceeded -> Alcotest.fail "exceeded on figure 2")
    [
      Engine.conf ();
      Engine.conf ~max_field_repeat:1 ();
      Engine.conf ~max_field_repeat:4 ();
      Engine.conf ~max_field_depth:4 ();
      Engine.conf ~max_field_depth:16 ();
      Engine.conf ~budget_limit:1_000_000 ();
    ]

let test_points_to_in_nonempty_context () =
  (* querying under a specific calling context restricts the answer *)
  let pl = Pts_workload.Figure2.pipeline () in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  (* ret_retrieve under an unknown context sees both vectors' contents *)
  let retrieve =
    Array.to_list prog.Ir.methods |> List.find (fun m -> m.Ir.pretty = "Client.retrieve")
  in
  let ret_var =
    List.filter_map (function Ir.Return { src = Some v } -> Some v | _ -> None) retrieve.Ir.body
    |> List.hd
  in
  let node = Pag.local_node pag ~meth:retrieve.Ir.id ~var:ret_var in
  let dynsum = Dynsum.create pag in
  match Dynsum.points_to_in dynsum node Pts_util.Hstack.empty with
  | Query.Exceeded -> Alcotest.fail "exceeded"
  | Query.Resolved ts ->
    check Alcotest.int "unknown caller sees both" 2 (List.length (Query.sites ts))

(* --------------------------- REFINEPTS ------------------------------ *)

let test_refinepts_early_satisfaction_is_sound () =
  (* a satisfiable predicate answered early must also hold for the exact
     answer (anti-monotonicity in action) *)
  let pl = Pts_workload.Suite.pipeline "jack" in
  let pag = pl.Pts_clients.Pipeline.pag in
  let refine = Sb.create Sb.Refine pag in
  let norefine = Sb.create Sb.No_refine pag in
  let queries = Pts_clients.Safecast.queries pl in
  List.iter
    (fun q ->
      let pred = q.Pts_clients.Client.q_pred in
      let early = Sb.points_to refine ~satisfy:pred q.Pts_clients.Client.q_node in
      let exact = Sb.points_to norefine q.Pts_clients.Client.q_node in
      match (early, exact) with
      | Query.Resolved e, Query.Resolved x when pred e ->
        check Alcotest.bool "early satisfaction implies exact satisfaction" true (pred x)
      | _ -> ())
    queries

let test_refinepts_refines_to_exact () =
  (* without a satisfy predicate REFINEPTS fully refines: equal to NOREFINE *)
  let pl = pipeline Pts_workload.Figure2.source in
  let pag = pl.Pts_clients.Pipeline.pag in
  let refine = Sb.create Sb.Refine pag in
  let norefine = Sb.create Sb.No_refine pag in
  List.iter
    (fun node ->
      check Alcotest.bool "refined = exact" true
        (Query.equal_sites (Sb.points_to refine node) (Sb.points_to norefine node)))
    [ Pts_workload.Figure2.s1 pl; Pts_workload.Figure2.s2 pl ];
  check Alcotest.bool "multiple passes happened" true
    (Pts_util.Stats.get (Sb.stats refine) "passes" > Pts_util.Stats.get (Sb.stats refine) "queries")

let () =
  Alcotest.run "core"
    [
      ( "fstack",
        [
          Alcotest.test_case "symbols" `Quick test_fstack_symbols;
          Alcotest.test_case "push/pop" `Quick test_fstack_push_pop;
          Alcotest.test_case "repeat cut" `Quick test_fstack_repeat_cut;
          Alcotest.test_case "widening" `Quick test_fstack_widen;
        ] );
      ( "fieldbased",
        [
          Alcotest.test_case "pts of field" `Quick test_fieldbased_pts_of_field;
          Alcotest.test_case "over-approximates exact" `Quick test_fieldbased_overapproximates_exact;
        ] );
      ( "budget",
        [
          Alcotest.test_case "limits" `Quick test_budget;
          Alcotest.test_case "exceeded outcome" `Quick test_budget_exceeded_outcome;
        ] );
      ("figure2", [ Alcotest.test_case "all engines agree with the paper" `Quick test_figure2_all_engines ]);
      ("scenarios", scenario_tests);
      ( "ppta",
        [
          Alcotest.test_case "figure2 ret_get summary" `Quick test_ppta_figure2_retget;
          Alcotest.test_case "context independence" `Quick test_ppta_context_independence;
          Alcotest.test_case "footprint of a walk" `Quick test_ppta_footprint;
        ] );
      ( "footprint",
        [
          test_footprint_round_trip;
          test_footprint_stale_model;
          test_footprint_of_pairs;
          Alcotest.test_case "empty and invalid" `Quick test_footprint_empty;
        ] );
      ( "dynsum",
        [
          Alcotest.test_case "cache reuse" `Quick test_dynsum_cache_reuse;
          Alcotest.test_case "clear cache" `Quick test_dynsum_clear_cache;
          Alcotest.test_case "idempotent" `Quick test_dynsum_results_stable_under_reuse;
          Alcotest.test_case "order-independent" `Quick test_dynsum_query_order_irrelevant;
          Alcotest.test_case "cache persistence" `Quick test_dynsum_cache_persistence;
          Alcotest.test_case "corrupt cache file" `Quick test_dynsum_cache_corrupt_file;
          Alcotest.test_case "missing cache file" `Quick test_dynsum_cache_missing_file;
          Alcotest.test_case "truncated cache file" `Quick test_dynsum_cache_truncated_file;
          Alcotest.test_case "out-of-range cache payload" `Quick
            test_dynsum_cache_out_of_range_payload;
          Alcotest.test_case "fingerprint mismatch is atomic" `Quick
            test_dynsum_cache_fingerprint_no_mutation;
        ] );
      ( "stasum",
        [
          Alcotest.test_case "covers queries" `Quick test_stasum_covers_queries;
          Alcotest.test_case "more summaries than dynsum" `Quick test_stasum_computes_more_summaries_than_dynsum;
          Alcotest.test_case "truncation path" `Quick test_stasum_truncation_path;
        ] );
      ( "api",
        [
          Alcotest.test_case "alias unknown on budget" `Quick test_alias_unknown_on_budget;
          Alcotest.test_case "conf variants" `Quick test_engine_conf_variants;
          Alcotest.test_case "non-empty context query" `Quick test_points_to_in_nonempty_context;
        ] );
      ( "refinepts",
        [
          Alcotest.test_case "early satisfaction sound" `Quick test_refinepts_early_satisfaction_is_sound;
          Alcotest.test_case "refines to exact" `Quick test_refinepts_refines_to_exact;
        ] );
    ]
