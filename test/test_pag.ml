(* PAG construction, classification, indices and call-graph tests. *)

let check = Alcotest.check

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
    (fun site _ -> if Pag.new_out pag (Pag.obj_node pag site) <> [] then incr reachable_allocs)
    prog.Ir.allocs;
  check Alcotest.int "one new edge per reachable alloc" !reachable_allocs c.Pag.n_new

let test_unique_new_destination () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  for n = 0 to Pag.node_count pag - 1 do
    if Pag.is_obj pag n then
      check Alcotest.bool "at most one new destination" true (List.length (Pag.new_out pag n) <= 1)
  done

let test_adjacency_symmetry () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  for v = 0 to Pag.node_count pag - 1 do
    List.iter
      (fun x -> check Alcotest.bool "assign symmetric" true (List.mem v (Pag.assign_out pag x)))
      (Pag.assign_in pag v);
    List.iter
      (fun (f, b) ->
        check Alcotest.bool "load symmetric" true (List.mem (f, v) (Pag.load_out pag b)))
      (Pag.load_in pag v);
    List.iter
      (fun (f, s) ->
        check Alcotest.bool "store symmetric" true (List.mem (f, v) (Pag.store_out pag s)))
      (Pag.store_in pag v);
    List.iter
      (fun (i, a) ->
        check Alcotest.bool "entry symmetric" true (List.mem (i, v) (Pag.entry_out pag a)))
      (Pag.entry_in pag v);
    List.iter
      (fun (i, r) ->
        check Alcotest.bool "exit symmetric" true (List.mem (i, v) (Pag.exit_out pag r)))
      (Pag.exit_in pag v)
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
      check Alcotest.bool "load index consistent" true (List.mem (arr, dst) (Pag.load_out pag base)))
    loads;
  List.iter
    (fun (base, src) ->
      check Alcotest.bool "store index consistent" true (List.mem (arr, src) (Pag.store_in pag base)))
    stores

let test_classification_flags () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  for v = 0 to Pag.node_count pag - 1 do
    let expect_local =
      Pag.new_in pag v <> [] || Pag.new_out pag v <> [] || Pag.assign_in pag v <> []
      || Pag.assign_out pag v <> [] || Pag.load_in pag v <> [] || Pag.load_out pag v <> []
      || Pag.store_in pag v <> [] || Pag.store_out pag v <> []
    in
    check Alcotest.bool "local flag" expect_local (Pag.has_local_edges pag v);
    let expect_gin =
      Pag.global_in pag v <> [] || Pag.entry_in pag v <> [] || Pag.exit_in pag v <> []
    in
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
   and the reconstructed list views must agree with them node by node. *)
let test_packed_csr_consistency () =
  let pl = Lazy.force fig2 in
  let pag = pl.Pts_clients.Pipeline.pag in
  let p = Pag.packed pag in
  let c = Pag.edge_counts pag in
  let len (s : Pag.slab) = Array.length s.Pag.dst in
  check Alcotest.int "new slab" c.Pag.n_new (len p.Pag.p_new_in);
  check Alcotest.int "new slabs symmetric" (len p.Pag.p_new_in) (len p.Pag.p_new_out);
  check Alcotest.int "assign slab" c.Pag.n_assign (len p.Pag.p_assign_in);
  check Alcotest.int "global slab" c.Pag.n_assign_global (len p.Pag.p_global_out);
  check Alcotest.int "load slab" c.Pag.n_load (len p.Pag.p_load_in);
  check Alcotest.int "store slab" c.Pag.n_store (len p.Pag.p_store_out);
  check Alcotest.int "entry slab" c.Pag.n_entry (len p.Pag.p_entry_in);
  check Alcotest.int "exit slab" c.Pag.n_exit (len p.Pag.p_exit_out);
  for n = 0 to Pag.node_count pag - 1 do
    check Alcotest.int "new_in degree" (List.length (Pag.new_in pag n)) (Pag.degree p.Pag.p_new_in n);
    check Alcotest.int "load_out degree"
      (List.length (Pag.load_out pag n))
      (Pag.degree p.Pag.p_load_out n);
    check Alcotest.int "entry_out degree"
      (List.length (Pag.entry_out pag n))
      (Pag.degree p.Pag.p_entry_out n)
  done

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
