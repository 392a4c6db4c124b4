module Hstack = Pts_util.Hstack
module Stats = Pts_util.Stats
module Tbl = Kernel.Key_tbl

type t = {
  pag : Pag.t;
  conf : Conf.t;
  budget : Budget.t; (* per-query budget for the online phase *)
  offline_budget : Budget.t;
  stats : Stats.t;
  sink : Trace.sink;
  cache : Ppta.summary Tbl.t;
  mutable truncated : bool;
}

let name = "stasum"

let summary_count t = Tbl.length t.cache

let summary_points t =
  let pts = Hashtbl.create 256 in
  Tbl.iter (fun (n, _f, s) _ -> Hashtbl.replace pts (n, s) ()) t.cache;
  Hashtbl.length pts
let truncated t = t.truncated
let budget t = t.budget
let stats t = t.stats

let key u f s = (u, Hstack.id f, Ppta.state_to_int s)

(* Frontier expansion, context-free: [visit] each summary key a worklist
   could request next, regardless of calling context. *)
let iter_successors pag visit (x, f1, s1) =
  let sides =
    match s1 with
    | Ppta.S1 -> Pag.View.[ exit_in; entry_in; global_in ]
    | Ppta.S2 -> Pag.View.[ exit_out; entry_out; global_out ]
  in
  List.iter (fun side -> Pag.View.fold pag side x (fun _ y () -> visit (y, f1, s1)) ()) sides

let offline t max_summaries =
  let pag = t.pag in
  let queue = Queue.create () in
  let seen : unit Tbl.t = Tbl.create 4096 in
  (* [visit] dedups every key encountered; keys whose node has local edges
     are queued for PPTA, the others take Algorithm 4's fast path and their
     global-edge successors are chased transitively (cycles are cut by
     [seen]). *)
  let rec visit (u, f, s) =
    if not (Tbl.mem seen (key u f s)) then begin
      Tbl.add seen (key u f s) ();
      if Pag.has_local_edges pag u then Queue.add (u, f, s) queue
      else iter_successors pag visit (u, f, s)
    end
  in
  (* seeds: every queryable node (vars and globals touched by any edge) *)
  for n = 0 to Pag.node_count pag - 1 do
    if (not (Pag.is_obj pag n)) && Pag.has_local_edges pag n then
      visit (n, Hstack.empty, Ppta.S1)
  done;
  while (not (Queue.is_empty queue)) && not t.truncated do
    let u, f, s = Queue.pop queue in
    if Tbl.length t.cache >= max_summaries then t.truncated <- true
    else begin
      let summary = Ppta.compute t.pag t.conf t.offline_budget u f s in
      Tbl.replace t.cache (key u f s) summary;
      List.iter (iter_successors pag visit) summary.Ppta.tuples
    end
  done

let create ?(conf = Conf.default) ?(trace = Trace.null) ?(max_summaries = 300_000) pag =
  let stats = Stats.create () in
  let t =
    {
      pag;
      conf;
      budget = Budget.create ~limit:conf.Conf.budget_limit;
      offline_budget = Budget.unlimited ();
      stats;
      sink = Trace.tee (Trace.counting stats) trace;
      cache = Tbl.create 4096;
      truncated = false;
    }
  in
  offline t max_summaries;
  t

(* Online: Algorithm 4's worklist over the precomputed cache. *)
let summarise t u f s =
  if not (Pag.has_local_edges t.pag u) then Ppta.frontier_only u f s
  else
    match Tbl.find_opt t.cache (key u f s) with
    | Some summary ->
      Trace.emit t.sink (Trace.Summary_hit { engine = name; node = u });
      summary
    | None ->
      Trace.emit t.sink (Trace.Summary_miss { engine = name; node = u });
      let summary = Ppta.compute t.pag t.conf t.budget u f s in
      Tbl.replace t.cache (key u f s) summary;
      summary

(* The {!Footprint.stale} cut, on each summary's own footprint; dropped
   offline entries are recovered lazily by the online backfill above. *)
let invalidate t dirty =
  let stale = Footprint.stale dirty in
  let doomed = ref [] in
  Tbl.iter (fun key summary -> if stale summary.Ppta.fp then doomed := key :: !doomed) t.cache;
  List.iter (Tbl.remove t.cache) !doomed;
  (List.length !doomed, Tbl.length t.cache)

let expand t u f s =
  let summary = summarise t u f s in
  { Kernel.lr_objs = summary.Ppta.objs;
    lr_match_objs = [];
    lr_frontier = summary.Ppta.tuples;
    lr_jumps = [] }

(* Same refutation-direction early exit as {!Dynsum.points_to}. *)
let stop_of_satisfy satisfy =
  Option.map (fun pred -> fun acc -> not (pred acc)) satisfy

let points_to t ?satisfy v =
  Trace.emit t.sink (Trace.Query_start { engine = name; node = v });
  Budget.start_query t.budget;
  let outcome =
    try
      Query.Resolved
        (Kernel.solve ?stop:(stop_of_satisfy satisfy) t.pag t.budget (expand t) v Hstack.empty)
    with Budget.Out_of_budget ->
      Trace.emit t.sink
        (Trace.Budget_exceeded { engine = name; node = v; steps = Budget.steps_this_query t.budget });
      Query.Exceeded
  in
  (match outcome with
  | Query.Resolved ts ->
    Trace.emit t.sink
      (Trace.Query_end
         {
           engine = name;
           node = v;
           resolved = true;
           targets = Query.Target_set.cardinal ts;
           steps = Budget.steps_this_query t.budget;
         })
  | Query.Exceeded ->
    Trace.emit t.sink
      (Trace.Query_end
         { engine = name; node = v; resolved = false; targets = 0;
           steps = Budget.steps_this_query t.budget }));
  outcome
