module Bitset = Pts_util.Bitset
module Pairset = Pts_util.Pairset
module Stats = Pts_util.Stats

type t = { prog : Ir.program; pag : Pag.t; cg : Callgraph.t; reachable : bool array; stats : Stats.t }

(* The fixpoint's working state, dropped once the solution is installed in
   the PAG. Units are PAG nodes first, then (object, field) cells created
   on demand. Unit [u]'s points-to and delta rows are the [stride] words
   from [u * stride] of the two slabs; every growable array is indexed by
   unit id. *)
type state = {
  prog : Ir.program;
  pag : Pag.t;
  cg : Callgraph.t;
  n_fields : int;
  stride : int;
  mutable pts : int array;
  mutable delta : int array; (* not-yet-propagated frontier per unit *)
  scratch : int array; (* the drained delta row being propagated *)
  mutable dyn_copy : int list array;
  mutable queued : Bytes.t;
  mutable n_units : int;
  copy_dedup : Pairset.t;
  cells : (int, int) Hashtbl.t; (* site * n_fields + fld -> unit *)
  virtuals : Builder.call_desc list array; (* per PAG node: calls it receives *)
  connected : Pairset.t; (* (site, target method) *)
  reachable : bool array;
  queue : int Queue.t;
  mutable propagations : int;
  mutable copy_edges : int;
}

let extend a used n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 used;
  b

let grow_units st needed =
  let cap = Bytes.length st.queued in
  if needed > cap then begin
    let ncap = max (2 * cap) needed in
    st.pts <- extend st.pts (st.n_units * st.stride) (ncap * st.stride) 0;
    st.delta <- extend st.delta (st.n_units * st.stride) (ncap * st.stride) 0;
    st.dyn_copy <- extend st.dyn_copy st.n_units ncap [];
    let queued = Bytes.make ncap '\000' in
    Bytes.blit st.queued 0 queued 0 cap;
    st.queued <- queued
  end

let push st u =
  if Bytes.get st.queued u = '\000' then begin
    Bytes.set st.queued u '\001';
    Queue.add u st.queue
  end

(* Difference propagation's one primitive: add the row at [src.(sbase ..)]
   to unit [w]'s points-to row, record the genuinely new bits in [w]'s
   delta, and queue [w] if anything was new. *)
let flow st (src : int array) sbase w =
  let stride = st.stride and pts = st.pts and delta = st.delta in
  let wb = w * stride in
  let changed = ref false in
  for i = 0 to stride - 1 do
    let fresh = src.(sbase + i) land lnot pts.(wb + i) in
    if fresh <> 0 then begin
      pts.(wb + i) <- pts.(wb + i) lor fresh;
      delta.(wb + i) <- delta.(wb + i) lor fresh;
      changed := true
    end
  done;
  if !changed then push st w

(* Re-arm a node whose edge set just grew (a call edge connected after its
   points-to set was already propagated): mark everything it holds as
   frontier again so the fresh edges see the full set, and requeue. *)
let reseed st u =
  let pts = st.pts and delta = st.delta in
  let b = u * st.stride in
  let any = ref false in
  for i = b to b + st.stride - 1 do
    let p = pts.(i) in
    if p <> 0 then begin
      delta.(i) <- delta.(i) lor p;
      any := true
    end
  done;
  if !any then push st u

let cell st site fld =
  let key = (site * st.n_fields) + fld in
  match Hashtbl.find st.cells key with
  | u -> u
  | exception Not_found ->
    let u = st.n_units in
    grow_units st (u + 1);
    st.n_units <- u + 1;
    Hashtbl.add st.cells key u;
    u

let add_copy st src dst =
  if Pairset.add st.copy_dedup src dst then begin
    st.dyn_copy.(src) <- dst :: st.dyn_copy.(src);
    st.copy_edges <- st.copy_edges + 1;
    if src <> dst then flow st st.pts (src * st.stride) dst
  end

(* Set bit [site] in the row at [base]; [true] iff it was clear. *)
let set_bit (slab : int array) base site =
  let i = base + (site / Sys.int_size) and bit = 1 lsl (site mod Sys.int_size) in
  if slab.(i) land bit <> 0 then false
  else begin
    slab.(i) <- slab.(i) lor bit;
    true
  end

let seed_obj st site dst_node =
  ignore (set_bit st.pts (Pag.obj_node st.pag site * st.stride) site);
  let d = dst_node * st.stride in
  if set_bit st.pts d site then begin
    ignore (set_bit st.delta d site);
    push st dst_node
  end

(* Connect one call edge: wire PAG entry/exit edges, record the call-graph
   edge, activate the callee, and reseed every populated source endpoint so
   the new edges see the whole set, not just future deltas. *)
let rec connect st (cd : Builder.call_desc) target_mid =
  if Pairset.add st.connected cd.Builder.cd_site target_mid then begin
    activate st target_mid;
    let target = st.prog.Ir.methods.(target_mid) in
    Builder.connect_call st.pag cd ~target;
    ignore
      (Callgraph.add_edge st.cg ~site:cd.Builder.cd_site ~caller:cd.Builder.cd_caller
         ~target:target_mid);
    (match Builder.receiver_node st.pag cd with Some r -> reseed st r | None -> ());
    (match cd.Builder.cd_kind with
    | Ir.Ctor { recv; _ } -> reseed st (Pag.local_node st.pag ~meth:cd.Builder.cd_caller ~var:recv)
    | Ir.Virtual _ | Ir.Static _ -> ());
    List.iter (reseed st) cd.Builder.cd_args;
    List.iter (reseed st) (Builder.return_nodes st.pag target)
  end

and activate st mid =
  if not st.reachable.(mid) then begin
    st.reachable.(mid) <- true;
    let descs = Builder.add_method_body st.pag mid in
    (* seed allocations and reseed accessed globals *)
    let m = st.prog.Ir.methods.(mid) in
    List.iter
      (fun instr ->
        match instr with
        | Ir.Alloc { dst; site; _ } -> seed_obj st site (Pag.local_node st.pag ~meth:mid ~var:dst)
        | Ir.Load_global { glb; _ } -> reseed st (Pag.global_node st.pag glb)
        | Ir.Move _ | Ir.Load _ | Ir.Store _ | Ir.Store_global _ | Ir.Call _ | Ir.Return _
        | Ir.Cast_move _ ->
          ())
      m.Ir.body;
    List.iter
      (fun (cd : Builder.call_desc) ->
        match cd.Builder.cd_kind with
        | Ir.Static { target } -> connect st cd target.Types.ms_id
        | Ir.Ctor { ctor; _ } -> connect st cd ctor.Types.ms_id
        | Ir.Virtual _ -> (
          match Builder.receiver_node st.pag cd with
          | Some recv ->
            st.virtuals.(recv) <- cd :: st.virtuals.(recv);
            reseed st recv
          | None -> assert false))
      descs
  end

let dispatch st site_id cd =
  let ctable = st.prog.Ir.ctable in
  let cls = st.prog.Ir.allocs.(site_id).Ir.alloc_cls in
  if cls <> Types.null_class ctable then begin
    match cd.Builder.cd_kind with
    | Ir.Virtual { mname; _ } -> (
      match Types.lookup_method ctable cls mname with
      | Some target -> connect st cd target.Types.ms_id
      | None -> () (* receiver class cannot answer: statically dead combination *))
    | Ir.Static _ | Ir.Ctor _ -> ()
  end

(* Closure-free walks of the unit's copy edges, its PAG rows and its
   dynamic copies: each edge gets the drained delta in [st.scratch]. *)
let flow_edge _ w st =
  flow st st.scratch 0 w;
  st

let rec flow_nodes st = function
  | [] -> ()
  | w :: rest ->
    flow st st.scratch 0 w;
    flow_nodes st rest

let nonempty _ _ _ = true

let rec fire_virtuals st o = function
  | [] -> ()
  | cd :: rest ->
    dispatch st o cd;
    fire_virtuals st o rest

(* Difference propagation: drain the unit's delta into the scratch row and
   push only that along every outgoing copy edge; complex constraints
   (loads/stores/dispatch) likewise fire only for the frontier sites. *)
let process st u =
  let delta = st.delta and scratch = st.scratch in
  let b = u * st.stride in
  let any = ref false in
  for i = 0 to st.stride - 1 do
    let d = delta.(b + i) in
    scratch.(i) <- d;
    if d <> 0 then begin
      delta.(b + i) <- 0;
      any := true
    end
  done;
  if !any then begin
    st.propagations <- st.propagations + 1;
    if u < Pag.node_count st.pag then begin
      (* static copy edges from the PAG *)
      let pag = st.pag in
      ignore (Pag.View.fold pag Pag.View.assign_out u flow_edge st);
      ignore (Pag.View.fold pag Pag.View.global_out u flow_edge st);
      ignore (Pag.View.fold pag Pag.View.entry_out u flow_edge st);
      ignore (Pag.View.fold pag Pag.View.exit_out u flow_edge st);
      (* complex constraints: u as a load/store base or virtual receiver,
         fired per frontier site [o] *)
      let loads = Pag.View.fold pag Pag.View.load_out u nonempty false
      and stores = Pag.View.fold pag Pag.View.store_in u nonempty false in
      let virtuals = st.virtuals.(u) in
      if loads || stores || virtuals <> [] then begin
        let fire_load f dst o =
          add_copy st (cell st o f) dst;
          o
        and fire_store f src o =
          add_copy st src (cell st o f);
          o
        in
        for i = 0 to st.stride - 1 do
          let w = ref scratch.(i) in
          while !w <> 0 do
            let o = (i * Sys.int_size) + Bitset.lowest_bit !w in
            if loads then ignore (Pag.View.fold pag Pag.View.load_out u fire_load o);
            if stores then ignore (Pag.View.fold pag Pag.View.store_in u fire_store o);
            fire_virtuals st o virtuals;
            w := !w land (!w - 1)
          done
        done
      end
    end;
    (* dynamic copy edges — fetched after the complex constraints so edges
       they added are included *)
    flow_nodes st st.dyn_copy.(u)
  end

let run ?roots (prog : Ir.program) =
  let pag = Pag.create prog in
  let cg = Callgraph.create prog in
  let n_nodes = Pag.node_count pag in
  let stride = Pag.oracle_row_words pag in
  let cap = max n_nodes 1 in
  let st =
    {
      prog;
      pag;
      cg;
      n_fields = max 1 (Types.field_count prog.Ir.ctable);
      stride;
      pts = Array.make (cap * stride) 0;
      delta = Array.make (cap * stride) 0;
      scratch = Array.make stride 0;
      dyn_copy = Array.make cap [];
      queued = Bytes.make cap '\000';
      n_units = n_nodes;
      copy_dedup = Pairset.create 4096;
      cells = Hashtbl.create 1024;
      virtuals = Array.make cap [];
      connected = Pairset.create 1024;
      reachable = Array.make (Array.length prog.Ir.methods) false;
      queue = Queue.create ();
      propagations = 0;
      copy_edges = 0;
    }
  in
  let roots =
    match roots with
    | Some rs -> rs
    | None -> (
      match prog.Ir.entry with
      | Some e -> [ e ]
      | None -> List.init (Array.length prog.Ir.methods) (fun i -> i))
  in
  List.iter (activate st) roots;
  while not (Queue.is_empty st.queue) do
    let u = Queue.pop st.queue in
    Bytes.set st.queued u '\000';
    process st u
  done;
  let stats = Stats.create () in
  Stats.add stats "propagations" st.propagations;
  Stats.add stats "copy_edges" st.copy_edges;
  Stats.add stats "cells" (st.n_units - n_nodes);
  Stats.add stats "reachable_methods"
    (Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 st.reachable);
  Stats.add stats "recursive_sccs" (Callgraph.mark_recursion cg pag);
  Stats.add stats "cg_edges" (Callgraph.edge_count cg);
  (* hand the PAG-node prefix of the slab over as the PAG's Andersen
     oracle, then seal *)
  Pag.set_oracle pag ~stride (Array.sub st.pts 0 (n_nodes * stride));
  Pag.freeze pag;
  { prog; pag; cg; reachable = st.reachable; stats }

let pag (t : t) = t.pag
let callgraph (t : t) = t.cg
let program (t : t) = t.prog

let points_to (t : t) node =
  if node >= 0 && node < Pag.node_count t.pag then Pag.oracle_row t.pag node
  else Bitset.create ~capacity:1 ()

let is_reachable (t : t) mid = mid >= 0 && mid < Array.length t.reachable && t.reachable.(mid)

let reachable_methods (t : t) =
  let acc = ref [] in
  Array.iteri (fun i r -> if r then acc := i :: !acc) t.reachable;
  List.rev !acc

let stats (t : t) = t.stats
