(* PAG construction, classification, indices and call-graph tests. *)

let check = Alcotest.check

let row = Support.row

let pipeline src = Pts_clients.Pipeline.of_source src

let fig2 = lazy (pipeline Pts_workload.Figure2.source)

let test_edge_counts_consistent () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  let c = Pag.edge_counts pag in
  check Alcotest.bool "has new edges" true (c.Pag.n_new > 0);
  check Alcotest.bool "has entry edges" true (c.Pag.n_entry > 0);
  check Alcotest.bool "has loads and stores" true (c.Pag.n_load > 0 && c.Pag.n_store > 0);
  (* the alloc table and new-edge count agree: every reachable alloc has
     exactly one new edge *)
  let reachable_allocs = ref 0 in
  let prog = pl.Pts_clients.Pipeline.prog in
  Array.iteri
    (fun site _ ->
      if row pag Pag.View.new_out (Pag.obj_node pag site) <> [] then incr reachable_allocs)
    prog.Ir.allocs;
  check Alcotest.int "one new edge per reachable alloc" !reachable_allocs c.Pag.n_new

let test_unique_new_destination () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  for n = 0 to Pag.node_count pag - 1 do
    if Pag.is_obj pag n then
      check Alcotest.bool "at most one new destination" true (List.length (row pag Pag.View.new_out n) <= 1)
  done

let test_adjacency_symmetry () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  for v = 0 to Pag.node_count pag - 1 do
    let symmetric name in_side out_side =
      List.iter
        (fun (a, x) -> check Alcotest.bool name true (List.mem (a, v) (row pag out_side x)))
        (row pag in_side v)
    in
    symmetric "assign symmetric" Pag.View.assign_in Pag.View.assign_out;
    symmetric "load symmetric" Pag.View.load_in Pag.View.load_out;
    symmetric "store symmetric" Pag.View.store_in Pag.View.store_out;
    symmetric "entry symmetric" Pag.View.entry_in Pag.View.entry_out;
    symmetric "exit symmetric" Pag.View.exit_in Pag.View.exit_out
  done

let test_field_indices () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  let arr = (Types.arr_field prog.Ir.ctable).Types.fld_id in
  let loads = Pag.loads_of_field pag arr in
  let stores = Pag.stores_of_field pag arr in
  check Alcotest.bool "arr loads exist" true (loads <> []);
  check Alcotest.bool "arr stores exist" true (stores <> []);
  List.iter
    (fun (base, dst) ->
      check Alcotest.bool "load index consistent" true (List.mem (arr, dst) (row pag Pag.View.load_out base)))
    loads;
  List.iter
    (fun (base, src) ->
      check Alcotest.bool "store index consistent" true (List.mem (arr, src) (row pag Pag.View.store_in base)))
    stores

let test_classification_flags () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  for v = 0 to Pag.node_count pag - 1 do
    let any sides = List.exists (fun side -> row pag side v <> []) sides in
    let expect_local =
      any
        Pag.View.
          [ new_in; new_out; assign_in; assign_out; load_in; load_out; store_in; store_out ]
    in
    check Alcotest.bool "local flag" expect_local (Pag.has_local_edges pag v);
    let expect_gin = any Pag.View.[ global_in; entry_in; exit_in ] in
    check Alcotest.bool "global-in flag" expect_gin (Pag.has_global_in pag v)
  done

let test_node_naming () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  let s1 = Pts_workload.Figure2.s1 pl in
  check Alcotest.string "s1 name" "Main.main::s1" (Pag.node_name pag s1);
  match Pag.kind pag s1 with
  | Pag.Local _ -> ()
  | _ -> Alcotest.fail "s1 should be a local"

let test_locality_metric () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  let l = Pag.locality pag in
  check Alcotest.bool "locality in (0,1)" true (l > 0.0 && l < 1.0)

let test_frozen_rejects_mutation () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  match Pag.add_assign pag ~src:0 ~dst:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "frozen PAG accepted an edge"

(* The packed CSR slabs must carry exactly the edges the counters report,
   and the reader must visit exactly each node's slab row. *)
let test_packed_csr_consistency () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  let c = Pag.edge_counts pag in
  let len side = Array.length (Pag.View.slab pag side).Pag.dst in
  check Alcotest.int "new slab" c.Pag.n_new (len Pag.View.new_in);
  check Alcotest.int "new slabs symmetric" (len Pag.View.new_in) (len Pag.View.new_out);
  check Alcotest.int "assign slab" c.Pag.n_assign (len Pag.View.assign_in);
  check Alcotest.int "global slab" c.Pag.n_assign_global (len Pag.View.global_out);
  check Alcotest.int "load slab" c.Pag.n_load (len Pag.View.load_in);
  check Alcotest.int "store slab" c.Pag.n_store (len Pag.View.store_out);
  check Alcotest.int "entry slab" c.Pag.n_entry (len Pag.View.entry_in);
  check Alcotest.int "exit slab" c.Pag.n_exit (len Pag.View.exit_out);
  let pair = Alcotest.pair Alcotest.int Alcotest.int in
  for n = 0 to Pag.node_count pag - 1 do
    List.iter
      (fun side ->
        let s = Pag.View.slab pag side in
        let slab_row =
          List.init
            (s.Pag.off.(n + 1) - s.Pag.off.(n))
            (fun i ->
              let k = s.Pag.off.(n) + i in
              ((if Array.length s.Pag.aux > 0 then s.Pag.aux.(k) else 0), s.Pag.dst.(k)))
        in
        check (Alcotest.list pair) "fold visits the slab row" slab_row (row pag side n))
      Support.all_sides
  done

(* The reader visits every row in the same order before and after
   [freeze]: the Andersen solver reads rows before it and the engines
   after, and DYNSUM's step counts follow row order. Random edges of every
   label over a hand-built graph give rows several edges long. *)
let test_fold_order_across_freeze () =
  let prog = (Lazy.force fig2).Pts_clients.Pipeline.prog in
  let pag = Pag.create prog in
  let n = Pag.node_count pag in
  let rng = Pts_util.Prng.create 7 in
  let node () = Pts_util.Prng.int rng n and small () = Pts_util.Prng.int rng 3 in
  (* object nodes come last; each flows to one variable *)
  let objs = List.filter (Pag.is_obj pag) (List.init n Fun.id) in
  let first_obj = List.hd objs in
  List.iter (fun o -> Pag.add_new pag ~obj_:o ~dst:(Pts_util.Prng.int rng first_obj)) objs;
  for _ = 1 to 4 * n do
    Pag.add_assign pag ~src:(node ()) ~dst:(node ());
    Pag.add_assign_global pag ~src:(node ()) ~dst:(node ());
    Pag.add_load pag ~base:(node ()) ~fld:(small ()) ~dst:(node ());
    Pag.add_store pag ~base:(node ()) ~fld:(small ()) ~src:(node ());
    Pag.add_entry pag ~site:(small ()) ~actual:(node ()) ~formal:(node ());
    Pag.add_exit pag ~site:(small ()) ~retval:(node ()) ~dst:(node ())
  done;
  let rows () = List.init n (fun v -> List.map (fun side -> row pag side v) Support.all_sides) in
  let before = rows () in
  Pag.freeze pag;
  let pair = Alcotest.pair Alcotest.int Alcotest.int in
  check Alcotest.bool "some row holds several edges" true
    (List.exists (List.exists (fun r -> List.length r > 2)) before);
  check (Alcotest.list (Alcotest.list (Alcotest.list pair))) "same rows, same order" before (rows ())

(* --------------------------- Call graph ----------------------------- *)

let test_callgraph_virtual_dispatch () =
  let pl =
    pipeline
      {|
class A { int m() { return 1; } }
class B extends A { int m() { return 2; } }
class Main {
  static void main() {
    A x = new A();
    int r1 = x.m();
    A y = new B();
    int r2 = y.m();
  }
}|}
  in
  let prog = pl.Pts_clients.Pipeline.prog in
  let cg = pl.Pts_clients.Pipeline.callgraph in
  let name mid = prog.Ir.methods.(mid).Ir.pretty in
  (* collect targets of the two interesting call sites *)
  let targets = ref [] in
  Callgraph.iter_edges cg (fun ~site:_ ~caller ~target ->
      if name caller = "Main.main" && (name target = "A.m" || name target = "B.m") then
        targets := name target :: !targets);
  let targets = List.sort_uniq compare !targets in
  check (Alcotest.list Alcotest.string) "precise dispatch" [ "A.m"; "B.m" ] targets

let test_callgraph_no_spurious_dispatch () =
  (* receiver only ever holds B, so A.m must not be a target *)
  let pl =
    pipeline
      {|
class A { int m() { return 1; } }
class B extends A { int m() { return 2; } }
class Main { static void main() { A y = new B(); int r = y.m(); } }|}
  in
  let prog = pl.Pts_clients.Pipeline.prog in
  let cg = pl.Pts_clients.Pipeline.callgraph in
  Callgraph.iter_edges cg (fun ~site:_ ~caller:_ ~target ->
      if prog.Ir.methods.(target).Ir.pretty = "A.m" then Alcotest.fail "spurious A.m target")

let test_recursion_marked () =
  let pl =
    pipeline
      {|
class R {
  Object walk(Object x, int n) { if (n == 0) { return x; } return this.walk(x, n - 1); }
}
class Main { static void main() { R r = new R(); Object o = r.walk(new Object(), 3); } }|}
  in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  (* find the recursive call site inside walk *)
  let walk = Array.to_list prog.Ir.methods |> List.find (fun m -> m.Ir.pretty = "R.walk") in
  let rec_sites =
    List.filter_map (function Ir.Call { site; _ } -> Some site | _ -> None) walk.Ir.body
  in
  check Alcotest.bool "walk calls" true (rec_sites <> []);
  check Alcotest.bool "recursive site marked" true
    (List.exists (fun s -> Pag.is_recursive_site pag s) rec_sites)

let test_mutual_recursion_marked () =
  let pl =
    pipeline
      {|
class M {
  Object ping(Object x, int n) { if (n == 0) { return x; } return this.pong(x, n - 1); }
  Object pong(Object x, int n) { return this.ping(x, n); }
}
class Main { static void main() { M m = new M(); Object o = m.ping(new Object(), 2); } }|}
  in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  let sites_of name =
    let m = Array.to_list prog.Ir.methods |> List.find (fun m -> m.Ir.pretty = name) in
    List.filter_map (function Ir.Call { site; _ } -> Some site | _ -> None) m.Ir.body
  in
  check Alcotest.bool "ping->pong recursive" true
    (List.exists (Pag.is_recursive_site pag) (sites_of "M.ping"));
  check Alcotest.bool "pong->ping recursive" true
    (List.exists (Pag.is_recursive_site pag) (sites_of "M.pong"))

let test_nonrecursive_not_marked () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  let prog = pl.Pts_clients.Pipeline.prog in
  Array.iter
    (fun (cs : Ir.call_site) ->
      check Alcotest.bool "figure2 has no recursion" false (Pag.is_recursive_site pag cs.Ir.cs_id))
    prog.Ir.calls

(* ---------------------- oracle handoff (set_oracle) ---------------------- *)

(* [set_oracle] takes a slab of [node_count * stride] words as is; it must
   refuse any slab whose geometry or contents break the row contract, and
   leave the graph without an oracle when it does. *)
let rejects name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail (name ^ " accepted")

let test_set_oracle_contract () =
  let pag = Pag.create (Lazy.force fig2).Pts_clients.Pipeline.prog in
  let sites = Array.length (Pag.program pag).Ir.allocs in
  let stride = Pag.oracle_row_words pag in
  check Alcotest.int "row width" ((sites + Sys.int_size - 1) / Sys.int_size) stride;
  let n = Pag.node_count pag in
  check Alcotest.bool "last word partly used" true (sites mod Sys.int_size <> 0);
  rejects "wrong stride" (fun () ->
      Pag.set_oracle pag ~stride:(stride + 1) (Array.make (n * (stride + 1)) 0));
  rejects "short slab" (fun () -> Pag.set_oracle pag ~stride (Array.make ((n * stride) - 1) 0));
  rejects "long slab" (fun () -> Pag.set_oracle pag ~stride (Array.make ((n + 1) * stride) 0));
  (* the last word of row [r], and the bit of site [s] within it *)
  let last r = (r * stride) + stride - 1 and bit s = 1 lsl (s mod Sys.int_size) in
  let slab = Array.make (n * stride) 0 in
  slab.(last (n - 1)) <- bit sites;
  rejects "site = sites in the last row" (fun () -> Pag.set_oracle pag ~stride slab);
  slab.(last (n - 1)) <- 0;
  slab.(last 0) <- 1 lsl (Sys.int_size - 1);
  rejects "top bit of the first row" (fun () -> Pag.set_oracle pag ~stride slab);
  slab.(last 0) <- 0;
  check Alcotest.bool "no oracle after rejections" false (Pag.has_oracle pag);
  slab.(last (n - 1)) <- bit (sites - 1);
  Pag.set_oracle pag ~stride slab;
  check Alcotest.bool "installed" true (Pag.has_oracle pag);
  check (Alcotest.list Alcotest.int) "row read back" [ sites - 1 ]
    (Pts_util.Bitset.to_list (Pag.oracle_row pag (n - 1)));
  check Alcotest.bool "other rows empty" true (Pag.oracle_row_empty pag 0);
  rejects "second install" (fun () -> Pag.set_oracle pag ~stride (Array.make (n * stride) 0))

let () =
  Alcotest.run "pag"
    [
      ( "structure",
        [
          Alcotest.test_case "edge counts" `Quick test_edge_counts_consistent;
          Alcotest.test_case "unique new destination" `Quick test_unique_new_destination;
          Alcotest.test_case "adjacency symmetry" `Quick test_adjacency_symmetry;
          Alcotest.test_case "field indices" `Quick test_field_indices;
          Alcotest.test_case "classification flags" `Quick test_classification_flags;
          Alcotest.test_case "node naming" `Quick test_node_naming;
          Alcotest.test_case "locality" `Quick test_locality_metric;
          Alcotest.test_case "frozen" `Quick test_frozen_rejects_mutation;
          Alcotest.test_case "packed CSR" `Quick test_packed_csr_consistency;
          Alcotest.test_case "fold order across freeze" `Quick test_fold_order_across_freeze;
          Alcotest.test_case "set_oracle contract" `Quick test_set_oracle_contract;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "virtual dispatch" `Quick test_callgraph_virtual_dispatch;
          Alcotest.test_case "no spurious dispatch" `Quick test_callgraph_no_spurious_dispatch;
          Alcotest.test_case "recursion marked" `Quick test_recursion_marked;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion_marked;
          Alcotest.test_case "non-recursive clean" `Quick test_nonrecursive_not_marked;
        ] );
    ]
