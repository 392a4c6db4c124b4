module Bitset = Pts_util.Bitset
module Digraph = Pts_util.Digraph

type t = {
  pag : Pag.t;
  mutable pts : Bitset.t array; (* node -> sites; valid once solved *)
  mutable reach : Bitset.t array; (* SCC component -> reachable nodes *)
  mutable comp : int array; (* node -> component *)
  mutable solved : bool;
  mutable epoch_seen : int; (* PAG epoch the index was solved at *)
  field_pts : (int, int list) Hashtbl.t;
  field_flows : (int, int list) Hashtbl.t;
}

let create pag =
  {
    pag;
    pts = [||];
    reach = [||];
    comp = [||];
    solved = false;
    epoch_seen = Pag.epoch pag;
    field_pts = Hashtbl.create 16;
    field_flows = Hashtbl.create 16;
  }

(* The whole index derives from the edge set; any edit burst since the
   last solve invalidates it wholesale (it is cheap relative to the
   demand traversals it serves, so no finer tracking here). *)
let refresh t =
  if t.solved && Pag.epoch t.pag <> t.epoch_seen then begin
    t.solved <- false;
    Hashtbl.reset t.field_pts;
    Hashtbl.reset t.field_flows
  end

(* Field-based successors: plain copies, calls/returns without context,
   and store(f) jumping to every load of f. *)
let add_successors pag load_dsts g n =
  List.iter
    (fun side -> Pag.View.fold pag side n (fun _ w () -> Digraph.add_edge g n w) ())
    Pag.View.[ assign_out; global_out; entry_out; exit_out ];
  Pag.View.fold pag Pag.View.store_out n
    (fun f _base () -> List.iter (Digraph.add_edge g n) (load_dsts f))
    ()

let solve t =
  refresh t;
  if not t.solved then begin
    t.solved <- true;
    t.epoch_seen <- Pag.epoch t.pag;
    let pag = t.pag in
    let n = Pag.node_count pag in
    let load_dsts_cache = Hashtbl.create 16 in
    let load_dsts f =
      match Hashtbl.find_opt load_dsts_cache f with
      | Some l -> l
      | None ->
        let l = List.map snd (Pag.loads_of_field pag f) in
        Hashtbl.add load_dsts_cache f l;
        l
    in
    (* build the field-based flow graph once *)
    let g = Digraph.create ~capacity:n () in
    if n > 0 then Digraph.ensure_node g (n - 1);
    for v = 0 to n - 1 do
      add_successors pag load_dsts g v
    done;
    (* forward reachability per SCC component, in reverse topological
       order (Digraph.scc numbers components so successors come first) *)
    let comp, n_comps = Digraph.scc g in
    let reach = Array.init n_comps (fun _ -> Bitset.create ~capacity:n ()) in
    let comp_succs = Array.make n_comps [] in
    Digraph.iter_edges g (fun u v ->
        if comp.(u) <> comp.(v) then comp_succs.(comp.(u)) <- comp.(v) :: comp_succs.(comp.(u)));
    for v = 0 to n - 1 do
      ignore (Bitset.add reach.(comp.(v)) v)
    done;
    for c = 0 to n_comps - 1 do
      List.iter (fun c' -> ignore (Bitset.union_into ~dst:reach.(c) reach.(c'))) comp_succs.(c)
    done;
    t.comp <- comp;
    t.reach <- reach;
    (* field-based points-to: each allocation site reaches everything its
       destination variable reaches *)
    let pts = Array.init (max n 1) (fun _ -> Bitset.create ~capacity:16 ()) in
    for node = 0 to n - 1 do
      if Pag.is_obj pag node then begin
        let site = Pag.obj_site pag node in
        Pag.View.fold pag Pag.View.new_out node
          (fun _ dst () ->
            ignore (Bitset.add pts.(dst) site);
            Bitset.iter t.reach.(comp.(dst)) (fun w -> ignore (Bitset.add pts.(w) site)))
          ()
      end
    done;
    t.pts <- pts
  end

let pts_of_field t f =
  refresh t;
  match Hashtbl.find_opt t.field_pts f with
  | Some sites -> sites
  | None ->
    solve t;
    let acc = Bitset.create ~capacity:64 () in
    List.iter
      (fun (_base, src) -> ignore (Bitset.union_into ~dst:acc t.pts.(src)))
      (Pag.stores_of_field t.pag f);
    let sites = Bitset.to_list acc in
    Hashtbl.add t.field_pts f sites;
    sites

let flows_of_field t f =
  refresh t;
  match Hashtbl.find_opt t.field_flows f with
  | Some nodes -> nodes
  | None ->
    solve t;
    let acc = Bitset.create ~capacity:64 () in
    List.iter
      (fun (_base, dst) ->
        ignore (Bitset.add acc dst);
        ignore (Bitset.union_into ~dst:acc t.reach.(t.comp.(dst))))
      (Pag.loads_of_field t.pag f);
    let nodes = Bitset.to_list acc in
    Hashtbl.add t.field_flows f nodes;
    nodes
