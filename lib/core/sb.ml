module Hstack = Pts_util.Hstack
module Stats = Pts_util.Stats

type mode = No_refine | Refine

type t = {
  pag : Pag.t;
  mode : mode;
  ename : string; (* registry name, used in trace events *)
  conf : Conf.t;
  budget : Budget.t;
  stats : Stats.t;
  sink : Trace.sink;
  fb : Fieldbased.t; (* the field-based approximation match edges denote *)
}

let create ?(conf = Conf.default) ?(trace = Trace.null) mode pag =
  let stats = Stats.create () in
  {
    pag;
    mode;
    ename = (match mode with No_refine -> "norefine" | Refine -> "refinepts");
    conf;
    budget = Budget.create ~limit:conf.Conf.budget_limit;
    stats;
    sink = Trace.tee (Trace.counting stats) trace;
    fb = Fieldbased.create pag;
  }

let budget t = t.budget
let stats t = t.stats
let mode t = t.mode

(* A load edge [dst = base.f], the unit of refinement, as the int pair
   (dst * node_count + base, f) of a {!Pts_util.Pairset}. *)
module Edge_set = Pts_util.Pairset

module Memo = Kernel.Key_tbl

(* One refinement pass: a kernel run whose policy treats exactly the load
   edges in [flds_to_refine] field-sensitively and jumps the rest through
   field-based match edges, recording them in [flds_seen].

   Within the pass, local walks are memoised by (node, field stack,
   direction) — the policy is fixed for the pass, so a walk's result is
   too. This replaces the old nested formulation's "ad hoc caching within
   a query" and is what {!Trace.Summary_hit} means for this engine. *)
let run_pass t ~flds_to_refine ~flds_seen v =
  let n = Pag.node_count t.pag in
  let policy =
    match t.mode with
    | No_refine -> Kernel.exact_policy
    | Refine ->
      {
        Kernel.exact = false;
        refined = (fun ~dst ~fld ~base -> Edge_set.mem flds_to_refine ((dst * n) + base) fld);
        note_match =
          (fun ~dst ~fld ~base ->
            if Edge_set.add flds_seen ((dst * n) + base) fld then
              Trace.emit t.sink (Trace.Match_edge { engine = t.ename; fld }));
        match_pts = (fun f -> Fieldbased.pts_of_field t.fb f);
        match_flows = (fun f -> Fieldbased.flows_of_field t.fb f);
      }
  in
  let memo = Memo.create 256 in
  let expand u f s =
    if not (Pag.has_local_edges t.pag u) then Kernel.frontier_only u f s
    else begin
      let key = (u, Hstack.id f, Kernel.state_to_int s) in
      match Memo.find_opt memo key with
      | Some r ->
        Trace.emit t.sink (Trace.Summary_hit { engine = t.ename; node = u });
        r
      | None ->
        Trace.emit t.sink (Trace.Summary_miss { engine = t.ename; node = u });
        let r = Kernel.local_walk ~policy t.pag t.conf t.budget u f s in
        Memo.add memo key r;
        r
    end
  in
  Kernel.solve t.pag t.budget expand v Hstack.empty

let points_to t ?satisfy v : Query.outcome =
  Trace.emit t.sink (Trace.Query_start { engine = t.ename; node = v });
  Budget.start_query t.budget;
  let flds_to_refine = Edge_set.create 64 in
  let outcome =
    try
      let rec iterate pass =
        Trace.emit t.sink (Trace.Refine_pass { engine = t.ename; node = v; pass });
        let flds_seen = Edge_set.create 64 in
        let pts = run_pass t ~flds_to_refine ~flds_seen v in
        let satisfied = match satisfy with Some pred -> pred pts | None -> false in
        if satisfied then pts
        else if t.mode = No_refine || Edge_set.length flds_seen = 0 then pts
        else begin
          Edge_set.iter (fun e fld -> ignore (Edge_set.add flds_to_refine e fld)) flds_seen;
          iterate (pass + 1)
        end
      in
      Query.Resolved (iterate 1)
    with Budget.Out_of_budget ->
      Trace.emit t.sink
        (Trace.Budget_exceeded
           { engine = t.ename; node = v; steps = Budget.steps_this_query t.budget });
      Query.Exceeded
  in
  (match outcome with
  | Query.Resolved ts ->
    Trace.emit t.sink
      (Trace.Query_end
         {
           engine = t.ename;
           node = v;
           resolved = true;
           targets = Query.Target_set.cardinal ts;
           steps = Budget.steps_this_query t.budget;
         })
  | Query.Exceeded ->
    Trace.emit t.sink
      (Trace.Query_end
         {
           engine = t.ename;
           node = v;
           resolved = false;
           targets = 0;
           steps = Budget.steps_this_query t.budget;
         }));
  outcome
