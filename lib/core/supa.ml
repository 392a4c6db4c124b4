(* SUPA: demand-driven flow-sensitive points-to with strong updates via
   value-flow refinement (after Sui & Xue).

   The engine answers in two stages. Stage one is the exact CFL kernel
   solve every other engine starts from — the flow-insensitive baseline,
   and the proof obligation for soundness: the final answer is always a
   subset of it. Stage two builds a query-local sparse value-flow graph
   from the lowered IR of the query variable's method — def-use chains
   walked backwards in body order — and filters the baseline down to the
   allocation sites that survive flow-sensitive reasoning. A load's value
   flow is refined by locating the stores that may feed it; when the
   nearest feeding store must-alias the load's base and the Andersen
   oracle admits the base as a singleton non-summary object
   ({!Pag.oracle_singleton}), the store kills everything older — a strong
   update. Every channel the walk cannot account for (parameters, globals,
   call returns, loops, overlay-edited nodes) degrades to Top, i.e. the
   baseline answer, so refinement can only remove flow-insensitive noise,
   never invent or lose a value. *)

module Hstack = Pts_util.Hstack
module Stats = Pts_util.Stats
module Int_set = Set.Make (Int)

type t = {
  pag : Pag.t;
  conf : Conf.t;
  budget : Budget.t;
  stats : Stats.t;
  sink : Trace.sink;
}

let ename = "supa"

let create ?(conf = Conf.default) ?(trace = Trace.null) pag =
  let stats = Stats.create () in
  {
    pag;
    conf;
    budget = Budget.create ~limit:conf.Conf.budget_limit;
    stats;
    sink = Trace.tee (Trace.counting stats) trace;
  }

let budget t = t.budget
let stats t = t.stats

module Memo = Kernel.Key_tbl

(* ----------------------- stage one: the baseline --------------------- *)

(* Exact kernel solve (NOREFINE's machine verbatim): field stacks tracked
   exactly, local walks memoised per (node, fstack, state). [budget] is
   passed explicitly so refinement sub-queries can run on a private
   allowance without corrupting the engine's per-query accounting. *)
let kernel_pts t budget v =
  let memo = Memo.create 256 in
  let expand u f s =
    if not (Pag.has_local_edges t.pag u) then Kernel.frontier_only u f s
    else begin
      let key = (u, Hstack.id f, Kernel.state_to_int s) in
      match Memo.find_opt memo key with
      | Some r ->
        Trace.emit t.sink (Trace.Summary_hit { engine = ename; node = u });
        r
      | None ->
        Trace.emit t.sink (Trace.Summary_miss { engine = ename; node = u });
        let r = Kernel.local_walk ~policy:Kernel.exact_policy t.pag t.conf budget u f s in
        Memo.add memo key r;
        r
    end
  in
  Kernel.solve t.pag budget expand v Hstack.empty

(* ------------------- stage two: value-flow refinement ----------------- *)

(* The contribution a value-flow chain makes: the allocation sites it can
   deliver, whether it also taps a channel the walk cannot enumerate
   ([c_top] — the contribution is then the whole baseline), and, when the
   chain is a straight must-alias line to one allocation instruction
   executed exactly once per invocation, that site ([c_strong] — the
   licence for must-alias reasoning at stores). Loads, calls, globals and
   merges all break [c_strong]. *)
type contrib = { c_sites : Int_set.t; c_top : bool; c_strong : int option }

let top = { c_sites = Int_set.empty; c_top = true; c_strong = None }
let of_site s = { c_sites = Int_set.singleton s; c_top = false; c_strong = Some s }

let merge a b =
  { c_sites = Int_set.union a.c_sites b.c_sites; c_top = a.c_top || b.c_top; c_strong = None }

(* Refinement walks bail out on unreasonably large bodies: the backward
   scans are quadratic in body length in the worst case. *)
let max_body = 4096

type walk = {
  t : t;
  meth : Ir.meth;
  mid : int;
  instrs : Ir.instr array;
  depths : int array; (* packed, parallel to instrs *)
  mutable vfg_nodes : int;
  mutable strong_updates : int;
  mutable weak_updates : int;
  mutable subqueries : int;
}

let node_of w var = Pag.local_node w.t.pag ~meth:w.mid ~var

let depth_at w i =
  let d = w.depths.(i) in
  (Ir.depth_loop d, Ir.depth_cond d)

let unconditional w i = depth_at w i = (0, 0)

let is_param w x = List.mem x w.meth.Ir.param_vars || w.meth.Ir.this_var = Some x

let def_of = function
  | Ir.Alloc { dst; _ }
  | Ir.Move { dst; _ }
  | Ir.Cast_move { dst; _ }
  | Ir.Load { dst; _ }
  | Ir.Load_global { dst; _ }
  | Ir.Call { dst = Some dst; _ } ->
    Some dst
  | Ir.Call { dst = None; _ } | Ir.Store _ | Ir.Store_global _ | Ir.Return _ -> None

(* Can [node] point to [site]? Oracle first; when it cannot refute, a
   points-to sub-query through the shared kernel on a private budget — the
   refinement step proper. Inconclusive (sub-query exceeded) means yes. *)
let may_point_to w node site =
  Pag.oracle_mem w.t.pag node site
  && begin
       w.subqueries <- w.subqueries + 1;
       let budget = Budget.create ~limit:(max 1 (w.t.conf.Conf.budget_limit / 4)) in
       Budget.start_query budget;
       match kernel_pts w.t budget node with
       | pts -> List.mem site (Query.sites pts)
       | exception Budget.Out_of_budget -> true
     end

(* Value of variable [x] just before instruction [j] executes: scan
   backwards for definitions. An unconditional definition screens off
   everything older; conditional ones accumulate and the scan continues.
   A use under a loop is Top — a later definition can reach it through
   the back edge, so the backward screen is invalid there. *)
let rec resolve_value w x j =
  w.vfg_nodes <- w.vfg_nodes + 1;
  if not (Pag.node_overlay_clean w.t.pag (node_of w x)) then top
  else if fst (depth_at w j) > 0 then top
  else begin
    (* [first]: no conditional definition seen yet, so a strong
       definition's contribution (and its must-alias licence) passes
       through unmerged *)
    let rec scan k first acc =
      if k < 0 then
        (* method head: parameters and [this] arrive from the caller;
           an undefined temporary contributes nothing *)
        if is_param w x then merge acc top else acc
      else if def_of w.instrs.(k) = Some x then begin
        let c =
          match w.instrs.(k) with
          | Ir.Alloc { site; _ } -> of_site site
          | Ir.Move { src; _ } | Ir.Cast_move { src; _ } -> resolve_value w src k
          | Ir.Load _ -> resolve_load w k
          | Ir.Load_global _ | Ir.Call _ -> top
          | Ir.Store _ | Ir.Store_global _ | Ir.Return _ -> assert false
        in
        if unconditional w k then
          (* strong definition: older ones are dead at this use *)
          if first then c else merge acc c
        else scan (k - 1) false (merge acc c)
      end
      else scan (k - 1) first acc
    in
    scan (j - 1) true { c_sites = Int_set.empty; c_top = false; c_strong = None }
  end

(* Value produced by the load instruction at index [i] ([dst = base.fld]):
   what [base.fld] holds at that point. Only attempted when [base] is a
   syntactic must-alias of one non-summary allocation in this body and the
   Andersen oracle agrees it is a singleton ({!Pag.oracle_singleton}, the
   strong-update admission test); every feeding store is then classified
   must-alias (kills when unconditional), provably disjoint (skipped — by
   oracle or kernel sub-query), or may-alias (weak update: accumulated).
   Intervening calls can write the object behind our back: Top. *)
and resolve_load w i =
  w.vfg_nodes <- w.vfg_nodes + 1;
  match w.instrs.(i) with
  | Ir.Load { base; fld; _ } ->
    if not (Pag.field_overlay_clean w.t.pag fld) then top
    else begin
      let bv = resolve_value w base i in
      match bv.c_strong with
      | Some site when Pag.oracle_singleton w.t.pag (node_of w base) = Some site -> begin
        let rec scan k first acc =
          if k < 0 then acc (* unreachable: the Alloc of [site] precedes [i] *)
          else
            match w.instrs.(k) with
            | Ir.Alloc { site = s2; _ } when s2 = site ->
              (* birth of the object: the field holds nothing older *)
              acc
            | Ir.Store { base = b2; fld = f2; src } when f2 = fld -> begin
              let b2v = resolve_value w b2 k in
              match b2v.c_strong with
              | Some s2
                when s2 = site && Pag.oracle_singleton w.t.pag (node_of w b2) = Some site ->
                (* must-alias store *)
                let sv = resolve_value w src k in
                if unconditional w k then begin
                  (* strong update: the store kills every older write *)
                  w.strong_updates <- w.strong_updates + 1;
                  if first then sv else merge acc sv
                end
                else begin
                  (* the store may not execute: weak update *)
                  w.weak_updates <- w.weak_updates + 1;
                  scan (k - 1) false (merge acc sv)
                end
              | _ ->
                (* not a must-alias: provably disjoint stores (resolved
                   locally, or refuted by oracle/kernel sub-query) are
                   skipped; the rest may write our object — weak update *)
                let disjoint =
                  ((not b2v.c_top) && not (Int_set.mem site b2v.c_sites))
                  || not (may_point_to w (node_of w b2) site)
                in
                if disjoint then scan (k - 1) first acc
                else begin
                  w.weak_updates <- w.weak_updates + 1;
                  let sv = resolve_value w src k in
                  scan (k - 1) false (merge acc sv)
                end
            end
            | Ir.Call _ ->
              (* the callee may store through an escaped alias *)
              merge acc top
            | _ -> scan (k - 1) first acc
        in
        let r = scan (i - 1) true { c_sites = Int_set.empty; c_top = false; c_strong = None } in
        { r with c_strong = None }
      end
      | _ -> top
    end
  | _ -> top

(* Survivor sites for the query variable: the union over all its
   definitions (any definition can reach some use), each resolved
   flow-sensitively. [None] = no refinement possible (Top). *)
let survivors t v =
  match Pag.kind t.pag v with
  | Pag.Global _ | Pag.Obj _ -> None
  | Pag.Local { meth; var } ->
    let prog = Pag.program t.pag in
    let m = prog.Ir.methods.(meth) in
    let n = List.length m.Ir.body in
    if Array.length m.Ir.depths <> n || n = 0 || n > max_body then None
    else begin
      let w =
        {
          t;
          meth = m;
          mid = meth;
          instrs = Array.of_list m.Ir.body;
          depths = m.Ir.depths;
          vfg_nodes = 0;
          strong_updates = 0;
          weak_updates = 0;
          subqueries = 0;
        }
      in
      let acc = ref { c_sites = Int_set.empty; c_top = false; c_strong = None } in
      if is_param w var || not (Pag.node_overlay_clean t.pag v) then acc := top
      else
        Array.iteri
          (fun i instr ->
            if def_of instr = Some var && not !acc.c_top then
              let c =
                match instr with
                | Ir.Alloc { site; _ } -> of_site site
                | Ir.Move { src; _ } | Ir.Cast_move { src; _ } -> resolve_value w src i
                | Ir.Load _ -> resolve_load w i
                | _ -> top
              in
              acc := merge !acc c)
          w.instrs;
      let emit name v =
        if v > 0 then Trace.emit t.sink (Trace.Counter { engine = ename; name; delta = v })
      in
      emit "vfg_nodes" w.vfg_nodes;
      emit "strong_updates" w.strong_updates;
      emit "weak_updates" w.weak_updates;
      emit "refinement_subqueries" w.subqueries;
      if !acc.c_top then None else Some !acc.c_sites
    end

(* ------------------------------ the query ---------------------------- *)

let points_to t ?satisfy v : Query.outcome =
  Trace.emit t.sink (Trace.Query_start { engine = ename; node = v });
  Budget.start_query t.budget;
  let outcome =
    try
      Trace.emit t.sink (Trace.Refine_pass { engine = ename; node = v; pass = 1 });
      let base = kernel_pts t t.budget v in
      let satisfied = match satisfy with Some pred -> pred base | None -> false in
      if satisfied || Query.Target_set.is_empty base then Query.Resolved base
      else begin
        Trace.emit t.sink (Trace.Refine_pass { engine = ename; node = v; pass = 2 });
        match survivors t v with
        | None -> Query.Resolved base
        | Some sites ->
          Query.Resolved
            (Query.Target_set.filter (fun tgt -> Int_set.mem tgt.Query.Target.site sites) base)
      end
    with Budget.Out_of_budget ->
      Trace.emit t.sink
        (Trace.Budget_exceeded { engine = ename; node = v; steps = Budget.steps_this_query t.budget });
      Query.Exceeded
  in
  (match outcome with
  | Query.Resolved ts ->
    Trace.emit t.sink
      (Trace.Query_end
         {
           engine = ename;
           node = v;
           resolved = true;
           targets = Query.Target_set.cardinal ts;
           steps = Budget.steps_this_query t.budget;
         })
  | Query.Exceeded ->
    Trace.emit t.sink
      (Trace.Query_end
         {
           engine = ename;
           node = v;
           resolved = false;
           targets = 0;
           steps = Budget.steps_this_query t.budget;
         }));
  outcome
