module Check = Pts_clients.Check
module Client = Pts_clients.Client
module Pipeline = Pts_clients.Pipeline
module Stats = Pts_util.Stats
module J = Trace.Json

(* The same four query-set clients [ptsto client -c] exposes, so a serve
   [query] request and a one-shot CLI run answer from identical query
   lists (byte-identity between the two is an acceptance gate). *)
let clients =
  [
    ("safecast", ("SafeCast", Pts_clients.Safecast.queries));
    ("nullderef", ("NullDeref", Pts_clients.Nullderef.queries));
    ("factorym", ("FactoryM", Pts_clients.Factorym.queries));
    ("devirt", ("Devirt", Pts_clients.Devirt.queries));
  ]

type config = {
  c_jobs : int;
  c_rounds : int;
  c_budget : int;
  c_max_budget : int;
  c_base_capacity : int;
  c_queue_capacity : int;
  c_max_cost : int;
  c_pipeline : int;
}

let default_config =
  {
    c_jobs = 1;
    c_rounds = 1;
    c_budget = Conf.default.Conf.budget_limit;
    c_max_budget = 0;
    c_base_capacity = 0;
    c_queue_capacity = 64;
    c_max_cost = 0;
    c_pipeline = 1;
  }

type t = {
  cfg : config;
  pl : Pipeline.t;
  checkers : Check.checker list;
  base : Dynsum.base;
  incr : Incr.t;
  admit : Proto.request Admit.t;
  trace : Trace.sink;
  counts : Stats.t;
  mutable latencies_us : int list; (* per served request, newest first *)
  mutable shutdown : bool;
}

let create ?(config = default_config) ?(trace = Trace.null) ~checkers pl =
  let base = Dynsum.base_create ~capacity:config.c_base_capacity () in
  let incr = Incr.create pl.Pipeline.pag in
  Incr.register_base incr base;
  {
    cfg = config;
    pl;
    checkers;
    base;
    incr;
    admit = Admit.create ~capacity:config.c_queue_capacity ~max_cost:config.c_max_cost ();
    trace;
    counts = Stats.create ();
    latencies_us = [];
    shutdown = false;
  }

let base = (fun t -> t.base : t -> Dynsum.base)
let shutting_down t = t.shutdown

let find_checker t name =
  let want = String.lowercase_ascii name in
  List.find_opt (fun ck -> String.lowercase_ascii ck.Check.ck_name = want) t.checkers

(* Admission-time cost: the Andersen oracle row sizes of the request's
   distinct query roots, summed — how many allocation sites its queries
   can reach at most. An unknown client costs 0 and unknown checkers
   add nothing; the request then fails in its handler with a better
   error. *)
let request_cost t rq =
  let queries =
    match rq.Proto.rq_op with
    | Proto.Query { client; _ } -> (
      match List.assoc_opt client clients with
      | None -> []
      | Some (_, queries_of) -> queries_of t.pl)
    | Proto.Check { checkers = names; _ } ->
      let cks = if names = [] then t.checkers else List.filter_map (find_checker t) names in
      List.concat_map (Check.queries_of t.pl) cks
    | Proto.Edit _ | Proto.Stats | Proto.Shutdown -> []
  in
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc q ->
      let n = q.Client.q_node in
      if Hashtbl.mem seen n then acc
      else begin
        Hashtbl.add seen n ();
        acc + Pag.oracle_row_size t.pl.Pipeline.pag n
      end)
    0 queries

(* ----------------------------- handlers ----------------------------- *)

let base_json t =
  J.Obj
    [
      ("size", J.Int (Dynsum.base_length t.base));
      ("capacity", J.Int (Dynsum.base_capacity t.base));
      ("hits", J.Int (Dynsum.base_hits t.base));
      ("misses", J.Int (Dynsum.base_misses t.base));
      ("evictions", J.Int (Dynsum.base_evictions t.base));
    ]

let budget_of t = function
  | None -> Ok t.cfg.c_budget
  | Some b when b <= 0 -> Error ("bad_request", "budget must be positive")
  | Some b when t.cfg.c_max_budget > 0 && b > t.cfg.c_max_budget ->
    Error
      ( "budget_too_large",
        Printf.sprintf "budget %d exceeds the per-request ceiling %d" b t.cfg.c_max_budget )
  | Some b -> Ok b

(* Derived from the registry so a newly registered engine (e.g. supa) is
   accepted — and listed in rejections — without touching the daemon. *)
let check_engine name =
  if Engine.find name = None then
    Error
      ( "bad_request",
        Printf.sprintf "unknown engine %S (registered: %s)" name
          (String.concat ", " (Engine.names ())) )
  else Ok ()

let ( let* ) r f = match r with Error (c, m) -> Error (c, m) | Ok v -> f v

let run_query t ~client ~engine ~prune ~budget =
  let* () = check_engine engine in
  let* budget_limit = budget_of t budget in
  let* cname, queries_of =
    match List.assoc_opt client clients with
    | None -> Error ("bad_request", Printf.sprintf "unknown client %S" client)
    | Some c -> Ok c
  in
  let conf = Engine.conf ~budget_limit ~prune () in
  let queries = queries_of t.pl in
  let qarr =
    Array.of_list
      (List.map (fun q -> Parsolve.query ~satisfy:q.Client.q_pred q.Client.q_node) queries)
  in
  let r =
    Parsolve.run ~conf ~jobs:t.cfg.c_jobs ~rounds:t.cfg.c_rounds ~base:t.base ~engine
      t.pl.Pipeline.pag qarr
  in
  let verdicts =
    List.mapi (fun i q -> (q, Client.verdict_of q.Client.q_pred r.Parsolve.outcomes.(i))) queries
  in
  Ok
    [
      ("engine", J.String engine);
      ("epoch", J.Int (Pag.epoch t.pl.Pipeline.pag));
      ("verdicts", Client.verdicts_json ~client:cname verdicts);
      ("steps", J.Int (Array.fold_left ( + ) 0 r.Parsolve.actual_steps));
      ("wall_seconds", J.Float r.Parsolve.wall_seconds);
      ("base", base_json t);
    ]

let run_check t ~names ~engine ~prune ~budget =
  let* () = check_engine engine in
  let* budget_limit = budget_of t budget in
  let* checkers =
    if names = [] then Ok t.checkers
    else
      List.fold_left
        (fun acc n ->
          let* acc = acc in
          match find_checker t n with
          | Some ck -> Ok (ck :: acc)
          | None -> Error ("bad_request", Printf.sprintf "unknown checker %S" n))
        (Ok []) names
      |> Result.map List.rev
  in
  let opts =
    {
      Check.o_engine = engine;
      o_conf = Engine.conf ~budget_limit ~prune ();
      o_jobs = t.cfg.c_jobs;
      o_rounds = t.cfg.c_rounds;
      o_base = Some t.base;
    }
  in
  let report = Check.run ~opts ~checkers t.pl in
  Ok
    [
      ("engine", J.String engine);
      ("epoch", J.Int (Pag.epoch t.pl.Pipeline.pag));
      ("report", Check.report_json report);
      ("points", J.Int report.Check.r_points);
      ("unique_nodes", J.Int report.Check.r_unique_nodes);
      ("seconds", J.Float report.Check.r_seconds);
      ("base", base_json t);
    ]

let run_edit t ~edits ~seed =
  if edits <= 0 then Error ("bad_request", "edits must be positive")
  else begin
    let rng = Pts_util.Prng.create seed in
    let burst = Pts_workload.Editscript.burst rng t.pl.Pipeline.pag ~n:edits in
    let st = Incr.apply t.incr burst in
    Ok
      [
        ("epoch", J.Int st.Incr.i_epoch);
        ("dirty", J.Int st.Incr.i_dirty);
        ("inserted", J.Int st.Incr.i_inserted);
        ("deleted", J.Int st.Incr.i_deleted);
        ("oracle_invalidated", J.Int st.Incr.i_oracle_invalidated);
        ("summaries_dropped", J.Int st.Incr.i_dropped);
        ("summaries_retained", J.Int st.Incr.i_retained);
        ("base", base_json t);
      ]
  end

(* Nearest-rank percentile over the recorded per-request latencies. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let latency_json t =
  let a = Array.of_list t.latencies_us in
  Array.sort compare a;
  J.Obj
    [
      ("count", J.Int (Array.length a));
      ("p50_micros", J.Int (percentile a 0.50));
      ("p99_micros", J.Int (percentile a 0.99));
    ]

let run_stats t =
  let get k = Stats.get t.counts k in
  Ok
    [
      ("epoch", J.Int (Pag.epoch t.pl.Pipeline.pag));
      ( "requests",
        J.Obj
          [
            ("query", J.Int (get "req_query"));
            ("check", J.Int (get "req_check"));
            ("edit", J.Int (get "req_edit"));
            ("stats", J.Int (get "req_stats"));
            ("shutdown", J.Int (get "req_shutdown"));
          ] );
      ( "admission",
        J.Obj
          [
            ("accepted", J.Int (Admit.accepted t.admit));
            ("rejected_oversized", J.Int (Admit.rejected_oversized t.admit));
            ("rejected_overloaded", J.Int (Admit.rejected_overloaded t.admit));
            ("pending", J.Int (Admit.pending t.admit));
            ("queue_capacity", J.Int (Admit.capacity t.admit));
            ("max_request_cost", J.Int (Admit.max_cost t.admit));
          ] );
      ("base", base_json t);
      ("latency", latency_json t);
    ]

let dispatch t rq =
  let id = rq.Proto.rq_id in
  let finish op = function
    | Ok fields -> Proto.ok ~id ~op fields
    | Error (code, msg) -> Proto.error ~id code msg
  in
  match rq.Proto.rq_op with
  | Proto.Query { client; engine; prune; budget } ->
    finish "query" (run_query t ~client ~engine ~prune ~budget)
  | Proto.Check { checkers; engine; prune; budget } ->
    finish "check" (run_check t ~names:checkers ~engine ~prune ~budget)
  | Proto.Edit { edits; seed } -> finish "edit" (run_edit t ~edits ~seed)
  | Proto.Stats -> finish "stats" (run_stats t)
  | Proto.Shutdown ->
    t.shutdown <- true;
    finish "shutdown" (Ok [ ("base", base_json t) ])

let handle t rq =
  let opn = Proto.op_name rq.Proto.rq_op in
  let resp, seconds = Stats.time (fun () -> dispatch t rq) in
  let micros = int_of_float (seconds *. 1e6) in
  t.latencies_us <- micros :: t.latencies_us;
  Stats.bump t.counts ("req_" ^ opn);
  Trace.emit t.trace (Trace.Request_latency { engine = "serve"; op = opn; micros });
  resp

(* --------------------------- transport loop -------------------------- *)

let respond oc j =
  output_string oc (J.to_string j);
  output_char oc '\n';
  flush oc

let admit_one t oc line =
  match Proto.of_line line with
  | Error (code, msg) -> respond oc (Proto.error ~id:J.Null code msg)
  | Ok rq -> (
    (* pricing builds the request's queries; skip it when nothing reads the price *)
    let cost = if t.cfg.c_max_cost > 0 then request_cost t rq else 0 in
    match Admit.submit t.admit ~client:rq.Proto.rq_client ~cost rq with
    | Ok () -> ()
    | Error (code, msg) -> respond oc (Proto.error ~id:rq.Proto.rq_id code msg))

let drain t oc =
  let rec go () =
    match Admit.next t.admit with
    | None -> ()
    | Some rq ->
      if t.shutdown then
        respond oc (Proto.error ~id:rq.Proto.rq_id "shutting_down" "daemon is shutting down")
      else respond oc (handle t rq);
      go ()
  in
  go ()

let serve_channel t ic oc =
  (* Read up to [c_pipeline] requests ahead, then drain the admission
     queue in fair-share order. With the default of 1 this is a strict
     serial request/response loop (what the smoke tests script); larger
     windows exercise the bounded queue and fair share for pipelined
     clients, with responses matched by [id]. *)
  let window = max 1 t.cfg.c_pipeline in
  let eof = ref false in
  while not (!eof || t.shutdown) do
    let filled = ref 0 in
    while (not !eof) && !filled < window && not t.shutdown do
      match input_line ic with
      | exception End_of_file -> eof := true
      | "" -> ()
      | line ->
        incr filled;
        admit_one t oc line
    done;
    drain t oc
  done;
  drain t oc

let serve_socket t path =
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 8;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      (* one connection at a time: accept, serve its stream to EOF (or a
         shutdown request), loop. Concurrency lives in the engine layer
         (jobs), not the transport. *)
      while not t.shutdown do
        let fd, _ = Unix.accept srv in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (try serve_channel t ic oc with End_of_file | Sys_error _ -> ());
        (try flush oc with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
