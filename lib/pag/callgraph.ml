type t = {
  n_methods : int;
  site_targets : (int, int list ref) Hashtbl.t;
  edges : (int * int * int, unit) Hashtbl.t;
  graph : Pts_util.Digraph.t;
  mutable n_edges : int;
}

let create (prog : Ir.program) =
  let n_methods = Array.length prog.Ir.methods in
  let graph = Pts_util.Digraph.create ~capacity:n_methods () in
  Pts_util.Digraph.ensure_node graph (max 0 (n_methods - 1));
  {
    n_methods;
    site_targets = Hashtbl.create 256;
    edges = Hashtbl.create 1024;
    graph;
    n_edges = 0;
  }

let multi_add tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add tbl key (ref [ v ])

let add_edge t ~site ~caller ~target =
  let key = (site, caller, target) in
  if Hashtbl.mem t.edges key then false
  else begin
    Hashtbl.add t.edges key ();
    multi_add t.site_targets site target;
    Pts_util.Digraph.add_edge t.graph caller target;
    t.n_edges <- t.n_edges + 1;
    true
  end

let find_list tbl key = match Hashtbl.find_opt tbl key with Some r -> !r | None -> []

let targets t site = find_list t.site_targets site
let edge_count t = t.n_edges

let iter_edges t f = Hashtbl.iter (fun (site, caller, target) () -> f ~site ~caller ~target) t.edges

let method_sccs t = Pts_util.Digraph.scc t.graph

let mark_recursion t pag =
  let comp, n_comps = method_sccs t in
  (* count non-singleton SCCs *)
  let sizes = Array.make n_comps 0 in
  Array.iter (fun c -> if c >= 0 then sizes.(c) <- sizes.(c) + 1) comp;
  (* a self-loop makes a singleton SCC recursive too *)
  let self_recursive = Array.make t.n_methods false in
  iter_edges t (fun ~site:_ ~caller ~target -> if caller = target then self_recursive.(caller) <- true);
  iter_edges t (fun ~site ~caller ~target ->
      let cyclic =
        comp.(caller) = comp.(target) && (sizes.(comp.(caller)) > 1 || self_recursive.(caller))
      in
      if cyclic then Pag.set_recursive_site pag site);
  Array.fold_left (fun acc s -> if s > 1 then acc + 1 else acc) 0 sizes
