type verdict = Proved | Refuted | Unknown

type query = {
  q_node : Pag.node;
  q_desc : string;
  q_pred : Query.Target_set.t -> bool;
}

type tally = { proved : int; refuted : int; unknown : int }

let total t = t.proved + t.refuted + t.unknown

let add_tally a b =
  { proved = a.proved + b.proved; refuted = a.refuted + b.refuted; unknown = a.unknown + b.unknown }

type run_result = {
  tally : tally;
  verdicts : (query * verdict) list;
  seconds : float;
  steps : int;
  summaries_after : int;
}

let verdict_of pred = function
  | Query.Exceeded -> Unknown
  | Query.Resolved ts -> if pred ts then Proved else Refuted

let tally_of verdicts =
  List.fold_left
    (fun acc (_, v) ->
      match v with
      | Proved -> { acc with proved = acc.proved + 1 }
      | Refuted -> { acc with refuted = acc.refuted + 1 }
      | Unknown -> { acc with unknown = acc.unknown + 1 })
    { proved = 0; refuted = 0; unknown = 0 }
    verdicts

let run (engine : Engine.engine) queries =
  let steps_before = Budget.total_steps engine.Engine.budget in
  let verdicts, seconds =
    Pts_util.Stats.time (fun () ->
        List.map
          (fun q -> (q, verdict_of q.q_pred (engine.Engine.points_to ~satisfy:q.q_pred q.q_node)))
          queries)
  in
  {
    tally = tally_of verdicts;
    verdicts;
    seconds;
    steps = Budget.total_steps engine.Engine.budget - steps_before;
    summaries_after = engine.Engine.summary_count ();
  }

let run_batches engine queries ~batches =
  if batches <= 0 then invalid_arg "Client.run_batches";
  let n = List.length queries in
  let size = max 1 (n / batches) in
  let rec split i acc rest =
    if i = batches - 1 || rest = [] then List.rev (rest :: acc)
    else begin
      let batch = List.filteri (fun j _ -> j < size) rest in
      let rest' = List.filteri (fun j _ -> j >= size) rest in
      split (i + 1) (batch :: acc) rest'
    end
  in
  let groups = split 0 [] queries in
  List.map (fun batch -> run engine batch) groups

let pp_tally fmt t =
  Format.fprintf fmt "proved=%d refuted=%d unknown=%d" t.proved t.refuted t.unknown

(* One canonical verdict rendering, shared by [ptsto client
   --verdicts-json] and the serve daemon's query responses so that
   "serve answers what the CLI answers" is checkable as byte equality.
   Engine-independent by construction, like {!Check.report_json}: no
   engine name, no timings, no step counts. *)
let verdicts_json ~client results =
  let count v = List.length (List.filter (fun (_, w) -> w = v) results) in
  let descs v =
    List.filter_map
      (fun (q, w) -> if w = v then Some (Trace.Json.String q.q_desc) else None)
      results
  in
  Trace.Json.Obj
    [
      ("schema", Trace.Json.String "ptsto.verdicts/1");
      ("client", Trace.Json.String client);
      ("queries", Trace.Json.Int (List.length results));
      ("proved", Trace.Json.Int (count Proved));
      ("refuted", Trace.Json.List (descs Refuted));
      ("unknown", Trace.Json.List (descs Unknown));
    ]
