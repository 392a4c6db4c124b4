(* ptsto_bench: the repository's end-to-end benchmark.

   Four workloads stress different layers of ptsto. Each is timed from
   outside the library, around calls into its public entry points only.
   README.md in this directory documents the metrics, the workloads and
   the timing discipline. BENCHMARK.json at the repository root is the
   output of [--list], and the test rule diffs the two.

     dune exec ./benchmark/ptsto_bench.exe -- --seed 0              all four, one child process each
     dune exec ./benchmark/ptsto_bench.exe -- --workload serve-warm --seed 3 --seconds 15 --trace 1
     dune exec ./benchmark/ptsto_bench.exe -- --smoke --trace 1    short sequences, one pass each

   Everything runs on the main domain with jobs 1. *)

module J = Trace.Json
module Stats = Pts_util.Stats
module Prng = Pts_util.Prng
module Suite = Pts_workload.Suite
module Editscript = Pts_workload.Editscript
module Pipeline = Pts_clients.Pipeline
module Client = Pts_clients.Client
module Check = Pts_clients.Check
module Daemon = Pts_serve.Daemon
module Proto = Pts_serve.Proto

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* The metric table                                                    *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* Every workload reports every one of these. The timed values are the
   fastest each operation ran across the timed passes, so bursts of
   interference from other tenants of the host do not move them; see
   README.md for the measurements behind that choice. *)
let end_to_end =
  [
    ("setup_s", "s", Lower, 0.25);
    ("wall_s", "s", Lower, 0.25);
    ("req_p50_ms", "ms", Lower, 0.25);
    ("req_p95_ms", "ms", Lower, 0.25);
    ("requests_per_s", "1/s", Higher, 0.25);
    ("peak_heap_mb", "MB", Lower, 0.1);
  ]

let engines = [ "norefine"; "refinepts"; "dynsum" ]

(* Filled from the traced passes of [--trace 1]; a layer the workload does
   not run reads 0. A layer's time is a share of the pass, round or set-up
   it ran in (its seconds are that share of [wall_s]); only the set-up
   layers, which every workload runs, are in seconds. *)
let per_layer =
  [
    ("frontend.compile_s", "s", Lower);
    ("frontend.source_bytes", "bytes", Lower);
    ("frontend.ir_methods", "count", Lower);
    ("andersen.solve_s", "s", Lower);
    ("andersen.pag_nodes", "count", Lower);
    ("andersen.pag_edges", "count", Lower);
    ("andersen.reachable_methods", "count", Lower);
  ]
  @ List.concat_map
      (fun e ->
        let m = "engine." ^ e in
        [
          (m ^ ".share", "ratio", Lower);
          (m ^ ".steps", "count", Lower);
          (m ^ ".msteps_per_s", "Msteps/s", Higher);
          (m ^ ".unknown", "count", Lower);
          (m ^ ".query_p99_steps", "count", Lower);
        ])
      engines
  @ [
      ("engine.dynsum.summaries", "count", Lower);
      ("engine.dynsum.summary_hit_ratio", "ratio", Higher);
      ("engine.dynsum_vs_refinepts_steps", "ratio", Higher);
      ("engine.unknown_frac", "ratio", Lower);
      ("check.run_share", "ratio", Lower);
      ("check.report_share", "ratio", Lower);
      ("check.points", "count", Lower);
      ("check.unique_nodes", "count", Lower);
      ("check.diags", "count", Lower);
      ("parsolve.share", "ratio", Lower);
      ("parsolve.steps", "count", Lower);
      ("serve.decode_share", "ratio", Lower);
      ("serve.handle_share", "ratio", Lower);
      ("serve.encode_share", "ratio", Lower);
      ("serve.daemon_self_share", "ratio", Lower);
      ("serve.response_bytes", "bytes", Lower);
      ("serve.base_hit_ratio", "ratio", Higher);
      ("serve.base_size", "count", Lower);
      ("serve.base_evictions", "count", Lower);
      ("serve.post_edit_slowdown", "ratio", Lower);
      ("incr.edit_share", "ratio", Lower);
      ("incr.dirty_nodes", "count", Lower);
      ("incr.oracle_invalidated", "count", Lower);
      ("incr.summaries_dropped", "count", Lower);
      ("incr.retained_frac", "ratio", Higher);
      ("trace_coverage", "ratio", Higher);
      ("trace_overhead_frac", "ratio", Lower);
    ]

let unit_of name =
  match List.find_opt (fun (n, _, _, _) -> n = name) end_to_end with
  | Some (_, u, _, _) -> u
  | None -> (
    match List.find_opt (fun (n, _, _) -> n = name) per_layer with
    | Some (_, u, _) -> u
    | None -> invalid_arg ("unit_of " ^ name))

(* ------------------------------------------------------------------ *)
(* Run state: options, results, correctness                            *)
(* ------------------------------------------------------------------ *)

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  spans_file : string option;
  smoke : bool;
  budget : int;
}

let metrics : (string, float * int) Hashtbl.t = Hashtbl.create 64
let set ?(samples = 1) name v = Hashtbl.replace metrics name (v, samples)
let correct = ref true
let attempted = ref 0
let failed = ref 0

(* The generated inputs (program text and request lines), digested into
   the result record so the smoke test can tell seeds apart. *)
let inputs = Buffer.create 65536

let mismatch fmt =
  Printf.ksprintf
    (fun msg ->
      correct := false;
      prerr_endline ("correctness check failed: " ^ msg))
    fmt

(* One operation of a timed pass: it counts as attempted, and as failed
   when it errored or its output did not check. *)
let op ok =
  incr attempted;
  if not ok then incr failed

let sum = List.fold_left ( +. ) 0.0
let fsum a = Array.fold_left ( +. ) 0.0 a

(* Nearest-rank percentile, as the serve daemon computes its own. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, only while a traced pass runs                *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_parent : int;  (** -1 for a root: a pass, round or set-up *)
  sp_root : int;
  sp_name : string;
  sp_pass : int;
  sp_req : int;  (** request index within a serve round, else -1 *)
  sp_start : float;
  mutable sp_stop : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span = ref 0
let cur_pass = ref 0
let cur_req = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let parent, root =
      match !open_spans with p :: _ -> (p.sp_id, p.sp_root) | [] -> (-1, !next_span)
    in
    let s =
      {
        sp_id = !next_span;
        sp_parent = parent;
        sp_root = root;
        sp_name = name;
        sp_pass = !cur_pass;
        sp_req = !cur_req;
        sp_start = now ();
        sp_stop = nan;
      }
    in
    incr next_span;
    open_spans := s :: !open_spans;
    let r = f () in
    s.sp_stop <- now ();
    open_spans := List.tl !open_spans;
    spans := s :: !spans;
    r
  end

let duration s = s.sp_stop -. s.sp_start

(* Self time: a span's duration minus the part its children cover
   (children of one span never overlap — everything is sequential). *)
let self_times () =
  let covered = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace covered s.sp_parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.sp_parent)))
    !spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.sp_id)))
    !spans

(* Span name -> the per-layer metric its self time feeds: seconds for the
   set-up layers, a share of the root (pass, round or set-up) for the
   others. Either way the median over the roots that contain the span. *)
let span_seconds =
  [ ("frontend.compile", "frontend.compile_s"); ("andersen.solve", "andersen.solve_s") ]

let span_shares =
  [
    ("check.run", "check.run_share");
    ("check.report", "check.report_share");
    ("serve.decode", "serve.decode_share");
    ("serve.handle", "serve.handle_share");
    ("serve.encode", "serve.encode_share");
    ("incr.edit", "incr.edit_share");
  ]
  @ List.map (fun e -> ("engine." ^ e ^ ".query", "engine." ^ e ^ ".share")) engines

(* [report_spans ()] returns each span name's seconds per root (median),
   for the rates computed from them. *)
let report_spans () =
  let selfs = self_times () in
  let roots = List.filter (fun s -> s.sp_parent < 0) !spans in
  let root_duration = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace root_duration r.sp_id (duration r)) roots;
  let per_root = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let k = (s.sp_name, s.sp_root) in
      Hashtbl.replace per_root k (self +. Option.value ~default:0.0 (Hashtbl.find_opt per_root k)))
    selfs;
  let medians f name =
    let vs = Hashtbl.fold (fun (n, root) v acc -> if n = name then f root v :: acc else acc) per_root [] in
    if vs = [] then None else Some (List.length vs, median vs)
  in
  let seconds = medians (fun _ v -> v) in
  let share = medians (fun root v -> ratio v (Hashtbl.find root_duration root)) in
  let report measure (span_name, metric) =
    Option.iter (fun (n, v) -> set ~samples:n metric v) (measure span_name)
  in
  List.iter (report seconds) span_seconds;
  List.iter (report share) span_shares;
  (* Coverage: how much of each root the layer spans below it account
     for. The gaps are the benchmark's own loop code. *)
  let below = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if s.sp_parent >= 0 then
        Hashtbl.replace below s.sp_root (self +. Option.value ~default:0.0 (Hashtbl.find_opt below s.sp_root)))
    selfs;
  let cov =
    List.map (fun r -> ratio (Option.value ~default:0.0 (Hashtbl.find_opt below r.sp_id)) (duration r)) roots
  in
  if cov <> [] then set ~samples:(List.length cov) "trace_coverage" (List.fold_left Float.min infinity cov);
  seconds

(* Appends, so the children of one run share a file. *)
let write_spans ~workload path =
  let t0 = List.fold_left (fun m s -> Float.min m s.sp_start) infinity !spans in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun s ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("workload", J.String workload);
                ("name", J.String s.sp_name);
                ("id", J.Int s.sp_id);
                ("parent", J.Int s.sp_parent);
                ("pass", J.Int s.sp_pass);
                ("req", J.Int s.sp_req);
                ("start_us", J.Int (int_of_float (1e6 *. (s.sp_start -. t0))));
                ("end_us", J.Int (int_of_float (1e6 *. (s.sp_stop -. t0))));
              ]));
      output_char oc '\n')
    (List.sort (fun a b -> compare a.sp_id b.sp_id) !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

(* What one pass (or serve round) measured. [parts] splits the pass's
   time into its operations, in a fixed order; [lat] is the latency of
   each request position (a subset of the operations); [setup] is the
   set-up time of each program, when the pass sets up; [layer] holds the
   per-layer values the pass computed from its own outputs. *)
type sample = {
  parts : float array;
  lat : float array;
  setup : float array;
  layer : (string * float) list;
}

(* The heap peak once the minimum passes are done. Later passes repeat
   the same work, so a higher peak after them would only say how many
   passes fit in the run. *)
let peak_words = ref 0

(* One untimed warm-up pass, then timed passes until [opts.seconds] have
   gone by (at least two, one in smoke mode), each after [Gc.compact].
   With tracing on, untraced and traced passes alternate, so the
   end-to-end numbers come from the untraced ones and the difference is
   the tracing overhead. *)
let run_passes opts pass =
  Gc.compact ();
  ignore (pass ~warm:true);
  let start = now () in
  let untraced = ref [] and traced = ref [] and k = ref 0 in
  let min_untraced = if opts.smoke then 1 else 2 in
  while
    List.length !untraced < min_untraced
    || (opts.trace && !traced = [])
    || now () -. start < opts.seconds
  do
    let traced_pass = opts.trace && !k mod 2 = 1 in
    incr k;
    cur_pass := !k;
    Gc.compact ();
    tracing := traced_pass;
    let s = pass ~warm:false in
    tracing := false;
    if traced_pass then traced := s :: !traced else untraced := s :: !untraced;
    if !peak_words = 0 && List.length !untraced = min_untraced then
      peak_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  (List.rev !untraced, List.rev !traced)

(* Per position, the fastest any of [samples] ran that operation. *)
let fastest f = function
  | [] -> [||]
  | s0 :: _ as samples ->
    Array.mapi (fun i _ -> List.fold_left (fun m s -> Float.min m (f s).(i)) infinity samples) (f s0)

(* [setups] holds one array per set-up, one entry per program: the
   workload's set-up time is each program's median, summed. *)
let report_setup setups =
  match setups with
  | [] -> ()
  | s0 :: _ ->
    let program i = median (List.map (fun s -> s.(i)) setups) in
    set ~samples:(List.length setups) "setup_s" (sum (List.init (Array.length s0) program))

let report_end_to_end samples =
  let parts = fastest (fun s -> s.parts) samples in
  let lat = Array.to_list (fastest (fun s -> s.lat) samples) in
  let wall = fsum parts in
  let n = List.length samples in
  set ~samples:n "wall_s" wall;
  set ~samples:(List.length lat) "req_p50_ms" (1e3 *. percentile 0.5 lat);
  set ~samples:(List.length lat) "req_p95_ms" (1e3 *. percentile 0.95 lat);
  set ~samples:n "requests_per_s" (ratio (float_of_int (Array.length parts)) wall);
  set "peak_heap_mb" (float_of_int (!peak_words * (Sys.word_size / 8)) /. 1e6)

let report_layers samples =
  let names = List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.layer) samples) in
  List.iter
    (fun n ->
      let vs = List.filter_map (fun s -> List.assoc_opt n s.layer) samples in
      set ~samples:(List.length vs) n (median vs))
    names

(* ------------------------------------------------------------------ *)
(* Inputs, set-up and reference answers                                *)
(* ------------------------------------------------------------------ *)

(* The programs are always the committed suite. [--seed] orders the
   work instead: which program, checker, query or request comes when,
   which changes what DYNSUM and the serve tier can reuse. Seed 0 keeps
   the committed order. A program regenerated under another generator
   seed costs up to 5x more or less to analyse (and an edit burst drawn
   from another seed up to 20x), which no regression bound could absorb. *)
let source name =
  let src = Suite.source name in
  Buffer.add_string inputs src;
  src

(* A seeded order of [0 .. n-1], the identity for seed 0. *)
let order opts rng n =
  let a = Array.init n Fun.id in
  if opts.seed <> 0 then Prng.shuffle rng a;
  Buffer.add_string inputs (String.concat "," (List.map string_of_int (Array.to_list a)) ^ ";");
  a

let reorder perm xs =
  let a = Array.of_list xs in
  List.map (fun i -> a.(i)) (Array.to_list perm)

let conf opts = Engine.conf ~budget_limit:opts.budget ()

(* Set-up as a user pays it: compile the text (with, for checker runs,
   the taint spec read from its annotations), then the Andersen pipeline. *)
let compile ~checkers src =
  span "frontend.compile" (fun () ->
      ( Frontend.compile src,
        if checkers then Pts_taint.Registry.all ~taint:(Pts_taint.Spec.of_source ~lang:Loc.Mjava src) ()
        else [] ))

let analyse prog = span "andersen.solve" (fun () -> Pipeline.of_program prog)

let size_metrics =
  [
    "frontend.source_bytes";
    "frontend.ir_methods";
    "andersen.pag_nodes";
    "andersen.pag_edges";
    "andersen.reachable_methods";
  ]

(* One program's sizes, in the order of [size_metrics]. *)
let sizes src (pl : Pipeline.t) =
  let c = Pag.edge_counts pl.Pipeline.pag in
  [
    String.length src;
    Array.length pl.Pipeline.prog.Ir.methods;
    Pag.node_count pl.Pipeline.pag;
    c.Pag.n_new + c.Pag.n_assign + c.Pag.n_load + c.Pag.n_store + c.Pag.n_entry + c.Pag.n_exit
    + c.Pag.n_assign_global;
    List.length (Pts_andersen.Solver.reachable_methods pl.Pipeline.solver);
  ]

let report_sizes per_program =
  List.iteri
    (fun k name -> set name (float_of_int (List.fold_left (fun acc p -> acc + List.nth p k) 0 per_program)))
    size_metrics

let strings k j =
  match J.member k j with
  | Some (J.List l) -> List.filter_map (function J.String s -> Some s | _ -> None) l
  | _ -> []

let num k j = match J.member k j with Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> 0.0

(* Two answers agree when every verdict both sides resolved is the same.
   A query or check point that ran out of budget on either side is left
   out: warm summaries change how many steps a query is charged, so the
   budget can run out on one side only. Without budget exhaustion this
   is byte equality. *)
let verdicts_agree a b =
  let ua = strings "unknown" a and ub = strings "unknown" b in
  let known u = List.filter (fun d -> not (List.mem d u)) in
  known ub (strings "refuted" a) = known ua (strings "refuted" b)

let reports_agree a b =
  let findings r = match J.member "findings" r with Some (J.List l) -> l | _ -> [] in
  let key f = List.map (fun k -> Option.map J.to_string (J.member k f)) [ "checker"; "method"; "line" ] in
  let unresolved f =
    match J.member "message" f with
    | Some (J.String m) -> String.ends_with ~suffix:"unresolved (budget exceeded)" m
    | _ -> false
  in
  let skip = List.map key (List.filter unresolved (findings a @ findings b)) in
  let kept r = List.filter (fun f -> not (List.mem (key f) skip)) (findings r) in
  List.map J.to_string (kept a) = List.map J.to_string (kept b)

let check_opts opts engine = { Check.default_opts with Check.o_engine = engine; o_conf = conf opts }

(* ------------------------------------------------------------------ *)
(* oneshot-suite: compile, analyse, check and report every program     *)
(* ------------------------------------------------------------------ *)

let oneshot opts =
  let rng = Prng.create opts.seed in
  let names = if opts.smoke then [ "jack" ] else Suite.names in
  let srcs = reorder (order opts rng (List.length names)) (List.map source names) in
  let n = List.length srcs in
  let n_checkers = List.length (Pts_taint.Registry.names ()) in
  let checker_orders = List.map (fun _ -> order opts rng n_checkers) srcs in
  let expected = Array.make n "" in
  let pass ~warm =
    let parts = Array.make n 0.0 and lat = Array.make n 0.0 and setup = Array.make n 0.0 in
    let points = ref 0 and unique = ref 0 and diags = ref 0 and exceeded = ref 0 in
    let program_sizes = ref [] in
    span "pass" (fun () ->
        List.iteri
          (fun i (src, checker_order) ->
            let t0 = now () in
            let prog, checkers = compile ~checkers:true src in
            let checkers = reorder checker_order checkers in
            let pl = analyse prog in
            let t1 = now () in
            let r = span "check.run" (fun () -> Check.run ~opts:(check_opts opts "dynsum") ~checkers pl) in
            let bytes = span "check.report" (fun () -> J.to_string (Check.report_json r)) in
            let t2 = now () in
            parts.(i) <- t2 -. t0;
            lat.(i) <- t2 -. t1;
            setup.(i) <- t1 -. t0;
            points := !points + r.Check.r_points;
            unique := !unique + r.Check.r_unique_nodes;
            diags := !diags + List.length r.Check.r_diags;
            exceeded := !exceeded + Stats.get r.Check.r_stats "exceeded";
            if warm then begin
              expected.(i) <- bytes;
              program_sizes := sizes src pl :: !program_sizes;
              let reference = Check.run ~opts:(check_opts opts "norefine") ~checkers pl in
              if not (reports_agree (Check.report_json r) (Check.report_json reference)) then
                mismatch "oneshot-suite: program %d: the dynsum and norefine reports differ" i
            end
            else begin
              let same = String.equal bytes expected.(i) in
              if not same then mismatch "oneshot-suite: program %d: the report changed between passes" i;
              op same
            end)
          (List.combine srcs checker_orders));
    if warm then report_sizes !program_sizes;
    let f = float_of_int in
    {
      parts;
      lat;
      setup;
      layer =
        [
          ("check.points", f !points);
          ("check.unique_nodes", f !unique);
          ("check.diags", f !diags);
          ("engine.unknown_frac", ratio (f !exceeded) (f !unique));
        ];
    }
  in
  let untraced, traced = run_passes opts pass in
  (List.map (fun s -> s.setup) untraced, untraced, traced)

(* ------------------------------------------------------------------ *)
(* paper-clients: Table 4's client batches on three fresh engines      *)
(* ------------------------------------------------------------------ *)

let paper_clients =
  [
    ("SafeCast", Pts_clients.Safecast.queries);
    ("NullDeref", Pts_clients.Nullderef.queries);
    ("FactoryM", Pts_clients.Factorym.queries);
  ]

let verdict_char = function Client.Proved -> 'P' | Client.Refuted -> 'R' | Client.Unknown -> 'U'

let paper opts =
  let rng = Prng.create opts.seed in
  let srcs = List.map source (if opts.smoke then [ "jack" ] else Suite.figure45_names) in
  let expected = ref "" in
  (* per (program, client), the order its queries arrive in *)
  let query_orders = Hashtbl.create 9 in
  let pass ~warm =
    let setup = Array.make (List.length srcs) 0.0 in
    (* set-up is outside the timed pass: this workload is the engines *)
    let pls =
      span "setup" (fun () ->
          List.mapi
            (fun i src ->
              let t0 = now () in
              let pl = analyse (fst (compile ~checkers:false src)) in
              setup.(i) <- now () -. t0;
              pl)
            srcs)
    in
    if warm then report_sizes (List.map2 sizes srcs pls);
    let cells = ref [] and verdicts = Buffer.create 16384 in
    let steps = Hashtbl.create 3 and unknown = Hashtbl.create 3 in
    let bump tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
    let query_steps = Hashtbl.create 3 in
    let bump_list tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
    let queries = ref 0 and summaries = ref 0 and hits = ref 0 and misses = ref 0 in
    span "pass" (fun () ->
        List.iteri
          (fun p pl ->
            List.iter
              (fun (cname, queries_of) ->
                let qs = span "clients.queries" (fun () -> queries_of pl) in
                let perm =
                  match Hashtbl.find_opt query_orders (p, cname) with
                  | Some perm -> perm
                  | None ->
                    let perm = order opts rng (List.length qs) in
                    Hashtbl.add query_orders (p, cname) perm;
                    perm
                in
                let qs = Array.of_list (reorder perm qs) in
                let answers =
                  List.map
                    (fun name ->
                      let t0 = now () in
                      let e =
                        span ("engine." ^ name ^ ".create") (fun () ->
                            Engine.create ~conf:(conf opts) name pl.Pipeline.pag)
                      in
                      let query = "engine." ^ name ^ ".query" in
                      let v =
                        Array.map
                          (fun q ->
                            let before = Budget.total_steps e.Engine.budget in
                            let verdict =
                              span query (fun () ->
                                  Client.verdict_of q.Client.q_pred
                                    (e.Engine.points_to ~satisfy:q.Client.q_pred q.Client.q_node))
                            in
                            bump_list query_steps name (Budget.total_steps e.Engine.budget - before);
                            verdict)
                          qs
                      in
                      cells := (now () -. t0) :: !cells;
                      bump steps name (Budget.total_steps e.Engine.budget);
                      bump unknown name
                        (Array.fold_left (fun a x -> if x = Client.Unknown then a + 1 else a) 0 v);
                      if name = "dynsum" then begin
                        summaries := !summaries + e.Engine.summary_count ();
                        hits := !hits + Stats.get e.Engine.stats "summary_hits";
                        misses := !misses + Stats.get e.Engine.stats "summary_misses"
                      end;
                      v)
                    engines
                in
                queries := !queries + (List.length engines * Array.length qs);
                (* Proved/Refuted must agree across engines; Unknown is excluded *)
                let agree =
                  Array.for_all Fun.id
                    (Array.mapi
                       (fun i _ ->
                         match List.filter (fun v -> v <> Client.Unknown) (List.map (fun a -> a.(i)) answers) with
                         | [] -> true
                         | v0 :: rest -> List.for_all (( = ) v0) rest)
                       qs)
                in
                if not agree then mismatch "paper-clients: %s verdicts differ across engines" cname;
                List.iter (fun a -> Array.iter (fun x -> Buffer.add_char verdicts (verdict_char x)) a) answers;
                if not warm then List.iter (fun _ -> op agree) engines)
              paper_clients)
          pls);
    let v = Buffer.contents verdicts in
    if warm then expected := v
    else if not (String.equal v !expected) then mismatch "paper-clients: verdicts changed between passes";
    let get tbl k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
    let cells = Array.of_list (List.rev !cells) in
    {
      parts = cells;
      lat = cells;
      setup;
      layer =
        List.concat_map
          (fun e ->
            [
              ("engine." ^ e ^ ".steps", get steps e);
              ("engine." ^ e ^ ".unknown", get unknown e);
              ( "engine." ^ e ^ ".query_p99_steps",
                percentile 0.99
                  (List.map float_of_int (Option.value ~default:[] (Hashtbl.find_opt query_steps e))) );
            ])
          engines
        @ [
            ("engine.dynsum.summaries", float_of_int !summaries);
            ("engine.dynsum.summary_hit_ratio", ratio (float_of_int !hits) (float_of_int (!hits + !misses)));
            ("engine.dynsum_vs_refinepts_steps", ratio (get steps "refinepts") (get steps "dynsum"));
            ( "engine.unknown_frac",
              ratio (sum (List.map (get unknown) engines)) (float_of_int !queries) );
          ];
    }
  in
  let untraced, traced = run_passes opts pass in
  (List.map (fun s -> s.setup) untraced, untraced, traced)

(* ------------------------------------------------------------------ *)
(* serve-warm and serve-edit: JSON lines through one daemon            *)
(* ------------------------------------------------------------------ *)

type request = Query of string | Check_all | Edit of int | Bad_client

(* A closed loop of one client: each request is sent when the previous
   answer is back. Every [check_every]th request is a full check, every
   [edit_every]th a 2-edit burst; the queries mix the four clients
   60/25/10/5 in exact shares, in a seeded order, so every seed sends the
   same amount of each kind of work. The bursts are the same for every
   seed (the k-th draws from generator seed 1000 + k), so every seed
   edits the graph the same way. Smoke runs end
   with one request for a client that does not exist, to exercise the
   error accounting. *)
let stream opts ~salt ~n ~check_every ~edit_every =
  let rng = Prng.create ((opts.seed * 1000) + salt) in
  let kind i =
    if edit_every > 0 && (i + 1) mod edit_every = 0 then `Edit
    else if (i + 1) mod check_every = 0 then `Check
    else `Query
  in
  let nq = List.length (List.filter (fun i -> kind i = `Query) (List.init n Fun.id)) in
  let tail =
    List.concat_map
      (fun (w, c) -> List.init (nq * w / 100) (fun _ -> c))
      [ (25, "nullderef"); (10, "factorym"); (5, "devirt") ]
  in
  let clients = Array.of_list (List.init (nq - List.length tail) (fun _ -> "safecast") @ tail) in
  Prng.shuffle rng clients;
  let next = ref 0 in
  let reqs =
    Array.init n (fun i ->
        match kind i with
        | `Edit -> Edit (1000 + ((i + 1) / edit_every))
        | `Check -> Check_all
        | `Query ->
          incr next;
          Query clients.(!next - 1))
  in
  if opts.smoke then Array.append reqs [| Bad_client |] else reqs

let request_line i r =
  let op =
    match r with
    | Query c -> [ ("op", J.String "query"); ("client", J.String c); ("engine", J.String "dynsum") ]
    | Check_all -> [ ("op", J.String "check"); ("engine", J.String "dynsum") ]
    | Edit seed -> [ ("op", J.String "edit"); ("edits", J.Int 2); ("seed", J.Int seed) ]
    | Bad_client -> [ ("op", J.String "query"); ("client", J.String "no-such-client") ]
  in
  J.to_string (J.Obj ([ ("id", J.Int i); ("client_id", J.String (Printf.sprintf "c%d" (i mod 4))) ] @ op))

type served = { daemon : Daemon.t; pl : Pipeline.t; checkers : Check.checker list; seconds : float }

let serve_setup opts src =
  let t0 = now () in
  let pl, checkers, daemon =
    span "setup" (fun () ->
        let prog, checkers = compile ~checkers:true src in
        let pl = analyse prog in
        let config = { Daemon.default_config with Daemon.c_budget = opts.budget } in
        (pl, checkers, span "serve.create" (fun () -> Daemon.create ~config ~checkers pl)))
  in
  { daemon; pl; checkers; seconds = now () -. t0 }

(* The one-shot answer to each request, computed on a pipeline no daemon
   touches, with edit bursts replayed through its own [Incr]. *)
let references opts (s : served) reqs =
  let incr = Incr.create s.pl.Pipeline.pag in
  let memo = Hashtbl.create 8 in
  let answer = function
    | Query c ->
      let cname, queries_of = List.assoc c Daemon.clients in
      let queries = queries_of s.pl in
      let batch = List.map (fun q -> Parsolve.query ~satisfy:q.Client.q_pred q.Client.q_node) queries in
      let r = Parsolve.run ~conf:(conf opts) ~engine:"dynsum" s.pl.Pipeline.pag (Array.of_list batch) in
      Client.verdicts_json ~client:cname
        (List.mapi (fun i q -> (q, Client.verdict_of q.Client.q_pred r.Parsolve.outcomes.(i))) queries)
    | Check_all -> Check.report_json (Check.run ~opts:(check_opts opts "dynsum") ~checkers:s.checkers s.pl)
    | Edit _ | Bad_client -> J.Null
  in
  Array.map
    (fun r ->
      match r with
      | Edit seed ->
        Hashtbl.reset memo;
        ignore (Incr.apply incr (Editscript.burst (Prng.create seed) s.pl.Pipeline.pag ~n:2));
        J.Null
      | _ -> (
        match Hashtbl.find_opt memo r with
        | Some j -> j
        | None ->
          let j = answer r in
          Hashtbl.add memo r j;
          j))
    reqs

(* Requests whose latency counts: queries and checks, not edits or the
   smoke runs' deliberately bad request. *)
let answers = function Query _ | Check_all -> true | Edit _ | Bad_client -> false

let served_right r resp expected =
  let ok = J.member "ok" resp = Some (J.Bool true) in
  let embedded k agree = match J.member k resp with Some j -> agree j expected | None -> false in
  match r with
  | Query _ -> ok && embedded "verdicts" verdicts_agree
  | Check_all -> ok && embedded "report" reports_agree
  | Edit _ -> ok
  | Bad_client -> (
    match J.member "error" resp with Some e -> J.member "code" e = Some (J.String "bad_request") | None -> false)

(* One round: every request line through decode, handle and encode, as
   the daemon's own loop does, minus the admission queue. *)
let serve_round ~warm (s : served) reqs lines expected =
  let n = Array.length lines in
  let parts = Array.make n 0.0 and resps = Array.make n J.Null in
  let bytes = ref 0 in
  let base = Daemon.base s.daemon in
  let hits0 = Dynsum.base_hits base and misses0 = Dynsum.base_misses base in
  let evictions0 = Dynsum.base_evictions base in
  span "round" (fun () ->
      Array.iteri
        (fun i line ->
          cur_req := i;
          let t0 = now () in
          span "serve.request" (fun () ->
              let resp =
                match span "serve.decode" (fun () -> Proto.of_line line) with
                | Ok rq ->
                  let layer = match reqs.(i) with Edit _ -> "incr.edit" | _ -> "serve.handle" in
                  span layer (fun () -> Daemon.handle s.daemon rq)
                | Error (code, msg) -> Proto.error ~id:J.Null code msg
              in
              bytes := !bytes + String.length (span "serve.encode" (fun () -> J.to_string resp));
              resps.(i) <- resp);
          parts.(i) <- now () -. t0)
        lines);
  cur_req := -1;
  Array.iteri
    (fun i r ->
      let right = served_right r resps.(i) expected.(i) in
      if not right then begin
        let answer = J.to_string resps.(i) in
        mismatch "request %d %s was answered %s" i lines.(i) (String.sub answer 0 (min 300 (String.length answer)))
      end;
      if not warm then op (right && J.member "ok" resps.(i) = Some (J.Bool true)))
    reqs;
  let total kind field =
    let acc = ref 0.0 in
    Array.iteri (fun i r -> if kind r then acc := !acc +. field resps.(i)) reqs;
    !acc
  in
  let is_query = function Query _ -> true | _ -> false in
  let is_check = function Check_all -> true | _ -> false in
  let is_edit = function Edit _ -> true | _ -> false in
  let in_verdicts f resp = match J.member "verdicts" resp with Some v -> f v | None -> 0.0 in
  let round = fsum parts in
  let dropped = total is_edit (num "summaries_dropped") in
  let retained = total is_edit (num "summaries_retained") in
  let hits = float_of_int (Dynsum.base_hits base - hits0) in
  let misses = float_of_int (Dynsum.base_misses base - misses0) in
  let lat = List.filter_map (fun i -> if answers reqs.(i) then Some parts.(i) else None) (List.init n Fun.id) in
  {
    parts;
    lat = Array.of_list lat;
    setup = [||];
    layer =
      [
        ("parsolve.share", ratio (total is_query (num "wall_seconds")) round);
        ("parsolve.steps", total is_query (num "steps"));
        ("check.run_share", ratio (total is_check (num "seconds")) round);
        ("check.points", total is_check (num "points"));
        ("check.unique_nodes", total is_check (num "unique_nodes"));
        ( "check.diags",
          total is_check (fun resp ->
              match Option.bind (J.member "report" resp) (J.member "counts") with
              | Some c -> num "total" c
              | None -> 0.0) );
        ( "engine.unknown_frac",
          ratio
            (total is_query (in_verdicts (fun v -> float_of_int (List.length (strings "unknown" v)))))
            (total is_query (in_verdicts (num "queries"))) );
        ("serve.response_bytes", float_of_int !bytes);
        ("serve.base_hit_ratio", ratio hits (hits +. misses));
        ("serve.base_size", float_of_int (Dynsum.base_length base));
        ("serve.base_evictions", float_of_int (Dynsum.base_evictions base - evictions0));
        ("incr.dirty_nodes", total is_edit (num "dirty"));
        ("incr.oracle_invalidated", total is_edit (num "oracle_invalidated"));
        ("incr.summaries_dropped", dropped);
        ("incr.retained_frac", ratio retained (dropped +. retained));
      ];
  }

(* One long-lived soot-c daemon. Set-up runs six times (the first also
   builds the reference pipeline and is not timed); the last daemon
   serves every round, so the timed rounds replay a warm tier. *)
let serve_warm opts =
  let src = source (if opts.smoke then "jack" else Suite.largest) in
  let reference = serve_setup opts src in
  report_sizes [ sizes src reference.pl ];
  let times = ref [] and live = ref reference in
  tracing := opts.trace;
  for _ = 1 to if opts.smoke then 1 else 5 do
    Gc.compact ();
    live := serve_setup opts src;
    times := [| !live.seconds |] :: !times
  done;
  tracing := false;
  let reqs =
    stream opts ~salt:1 ~n:(if opts.smoke then 12 else 60) ~check_every:(if opts.smoke then 6 else 25)
      ~edit_every:0
  in
  let lines = Array.mapi request_line reqs in
  Array.iter (Buffer.add_string inputs) lines;
  let expected = references opts reference reqs in
  let untraced, traced = run_passes opts (fun ~warm -> serve_round ~warm !live reqs lines expected) in
  (!times, untraced, traced)

(* Writes beside reads: every round starts from a fresh jack daemon (its
   set-up timed apart from the round) and replays the same requests and
   edit bursts, so a position holds the same work in every round. *)
let serve_edit opts =
  let src = source "jack" in
  let reqs =
    stream opts ~salt:2 ~n:(if opts.smoke then 20 else 200) ~check_every:(if opts.smoke then 6 else 25)
      ~edit_every:(if opts.smoke then 10 else 20)
  in
  let lines = Array.mapi request_line reqs in
  Array.iter (Buffer.add_string inputs) lines;
  let reference = serve_setup opts src in
  report_sizes [ sizes src reference.pl ];
  let expected = references opts reference reqs in
  let pass ~warm =
    let s = serve_setup opts src in
    { (serve_round ~warm s reqs lines expected) with setup = [| s.seconds |] }
  in
  let untraced, traced = run_passes opts pass in
  let after_edit i = i > 0 && match reqs.(i - 1) with Edit _ -> true | _ -> false in
  let parts = fastest (fun s -> s.parts) (if opts.trace then traced else untraced) in
  let p50 keep =
    let positions = List.init (Array.length parts) Fun.id in
    median (List.filter_map (fun i -> if keep i then Some parts.(i) else None) positions)
  in
  (* the request right after a burst, against every other query or check *)
  let post_edit = p50 (fun i -> answers reqs.(i) && after_edit i) in
  set "serve.post_edit_slowdown" (ratio post_edit (p50 (fun i -> answers reqs.(i) && not (after_edit i))));
  (List.map (fun s -> s.setup) untraced, untraced, traced)

(* ------------------------------------------------------------------ *)
(* Workloads, BENCHMARK.json and the result lines                      *)
(* ------------------------------------------------------------------ *)

let workloads =
  [
    ( "oneshot-suite",
      "CI or IDE user who pays set-up on every run: compile, Andersen, all six checkers and the report for \
       each of the nine suite programs",
      oneshot );
    ( "paper-clients",
      "the paper's Table 4: SafeCast, NullDeref and FactoryM queries on soot-c, bloat and jython through \
       fresh norefine, refinepts and dynsum engines",
      paper );
    ( "serve-warm",
      "one long-lived soot-c daemon replaying a 60-request query and check mix: Parsolve and the \
       cross-request summary tier, no edits",
      serve_warm );
    ( "serve-edit",
      "a fresh jack daemon per round with a 2-edit burst every 20th of 200 requests: edits, Incr \
       invalidation, overlay reads and tier refill",
      serve_edit );
  ]

let run_seconds = 15
let command = [ "dune"; "exec"; "./benchmark/ptsto_bench.exe"; "--" ]

(* The exact text of BENCHMARK.json. *)
let benchmark_json () =
  let str s = J.to_string (J.String s) in
  let rows render xs = String.concat ",\n" (List.map (fun x -> "    " ^ J.to_string (render x)) xs) in
  let metric name unit_ better extra =
    J.Obj
      ([ ("name", J.String name); ("unit", J.String unit_); ("better", J.String (better_name better)) ] @ extra)
  in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"command\": [%s]," (String.concat ", " (List.map str command));
      "  \"paths\": [\"benchmark\"],";
      Printf.sprintf "  \"run_seconds\": %d," run_seconds;
      "  \"workloads\": [";
      rows (fun (name, why, _) -> J.Obj [ ("name", J.String name); ("why", J.String why) ]) workloads;
      "  ],";
      "  \"end_to_end\": [";
      rows (fun (n, u, b, bound) -> metric n u b [ ("bound", J.Float bound) ]) end_to_end;
      "  ],";
      "  \"per_layer\": [";
      rows (fun (n, u, b) -> metric n u b []) per_layer;
      "  ]";
      "}";
    ]

(* Measured values keep all their digits. *)
let number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json ~samples names =
  "{"
  ^ String.concat ","
      (List.map
         (fun n ->
           let v, k = Option.value ~default:(0.0, 0) (Hashtbl.find_opt metrics n) in
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s%s}" (J.to_string (J.String n)) (number v)
             (J.to_string (J.String (unit_of n)))
             (if samples then Printf.sprintf ",\"samples\":%d" k else ""))
         names)
  ^ "}"

let names_e2e = List.map (fun (n, _, _, _) -> n) end_to_end
let names_layer = List.map (fun (n, _, _) -> n) per_layer

let get name = Option.map fst (Hashtbl.find_opt metrics name)

let run_workload opts name =
  let _, _, run = List.find (fun (n, _, _) -> n = name) workloads in
  let setups, untraced, traced = run opts in
  report_setup setups;
  report_end_to_end untraced;
  report_layers (if opts.trace then traced else untraced);
  if opts.trace then begin
    let seconds = report_spans () in
    let wall ss = fsum (fastest (fun s -> s.parts) ss) in
    set "trace_overhead_frac" (wall traced /. wall untraced -. 1.0);
    List.iter
      (fun e ->
        match (seconds ("engine." ^ e ^ ".query"), get ("engine." ^ e ^ ".steps")) with
        | Some (_, s), Some steps when s > 0.0 -> set ("engine." ^ e ^ ".msteps_per_s") (steps /. s /. 1e6)
        | _ -> ())
      engines;
    (match get "serve.handle_share" with
    | Some h ->
      let v n = Option.value ~default:0.0 (get n) in
      set "serve.daemon_self_share" (h -. v "parsolve.share" -. v "check.run_share")
    | None -> ());
    Option.iter (write_spans ~workload:name) opts.spans_file
  end;
  let passes = List.length untraced + List.length traced in
  Printf.printf "== %s: seed %d, %d timed passes (%d traced), %s\n" name opts.seed passes
    (List.length traced)
    (if !correct then "all correctness checks passed" else "CORRECTNESS CHECKS FAILED");
  let shown = names_e2e @ if opts.trace then names_layer else [] in
  List.iter
    (fun n ->
      match Hashtbl.find_opt metrics n with
      | Some (v, k) -> Printf.printf "  %-36s %16.6g %-6s (n=%d)\n" n v (unit_of n) k
      | None -> Printf.printf "  %-36s %16s %-6s (not run by this workload)\n" n "0" (unit_of n))
    shown;
  Printf.printf "  %-36s %16.6g %-6s (n=%d)\n" "error_frac" (ratio (float_of_int !failed) (float_of_int !attempted))
    "ratio" !attempted;
  Printf.printf
    "{\"schema\":\"ptsto.benchmark/1\",\"workload\":%s,\"seed\":%d,\"trace\":%b,\"smoke\":%b,\
     \"budget\":%d,\"passes\":%d,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\
     \"inputs_md5\":\"%s\",\"metrics\":%s}\n"
    (J.to_string (J.String name)) opts.seed opts.trace opts.smoke opts.budget passes !correct !attempted !failed
    (Digest.to_hex (Digest.string (Buffer.contents inputs)))
    (metrics_json ~samples:true shown);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!" !correct !attempted !failed
    (metrics_json ~samples:false (if opts.trace then names_layer else names_e2e));
  exit (if !correct then 0 else 1)

(* Without [--workload], each workload runs in a child process of its
   own, one after another, so heap peaks and GC state never carry over. *)
let run_all opts argv =
  Option.iter (fun f -> close_out (open_out f)) opts.spans_file;
  let records = ref [] and ok = ref true and attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun (name, _, _) ->
      let args = Array.append [| Sys.executable_name; "--workload"; name |] argv in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let last = ref "" in
      (try
         while true do
           let line = input_line ic in
           Printf.printf "%s\n%!" line;
           last := line;
           if String.starts_with ~prefix:"{\"schema\":\"ptsto.benchmark/1\"" line then records := line :: !records
         done
       with End_of_file -> ());
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> () | _ -> ok := false);
      match J.of_string !last with
      | Ok j ->
        attempted := !attempted + int_of_float (num "attempted" j);
        failed := !failed + int_of_float (num "failed" j)
      | Error _ -> ok := false)
    workloads;
  Printf.printf
    "{\"schema\":\"ptsto.benchmark/1\",\"seed\":%d,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\
     \"workloads\":[%s]}\n%!"
    opts.seed !ok !attempted !failed
    (String.concat "," (List.rev !records));
  exit (if !ok then 0 else 1)

let () =
  let workload = ref None and seed = ref 0 and seconds = ref run_seconds and trace = ref 0 in
  let spans_file = ref None and smoke = ref false and budget = ref Conf.default.Conf.budget_limit in
  let list = ref false in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "S offset of every program's generator seed; seeds the request streams");
      ("--seconds", Arg.Set_int seconds, "N keep timing passes until N seconds have gone by");
      ("--trace", Arg.Set_int trace, "0|1 with 1, alternate traced passes and report per-layer metrics");
      ("--spans", Arg.String (fun f -> spans_file := Some f), "FILE write the traced spans as JSON lines");
      ("--smoke", Arg.Set smoke, " short sequences and one pass each (the test rule's mode)");
      ("--budget", Arg.Set_int budget, "N per-query step budget (default: the paper's 75000)");
      ("--list", Arg.Set list, " print BENCHMARK.json, generated from the tables in this file");
    ]
  in
  let usage = "ptsto_bench [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--smoke]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !list then print_endline (benchmark_json ())
  else begin
    if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
    if !budget <= 0 then (prerr_endline "--budget must be positive"; exit 2);
    let opts =
      {
        seed = !seed;
        seconds = (if !smoke then 0.0 else float_of_int !seconds);
        trace = !trace = 1;
        spans_file = (if !trace = 1 then !spans_file else None);
        smoke = !smoke;
        budget = !budget;
      }
    in
    match !workload with
    | Some w when List.exists (fun (n, _, _) -> n = w) workloads -> run_workload opts w
    | Some w ->
      Printf.eprintf "unknown workload %s (have: %s)\n" w
        (String.concat ", " (List.map (fun (n, _, _) -> n) workloads));
      exit 2
    | None ->
      let argv = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
      run_all opts (Array.of_list (List.filter (fun a -> a <> "--") (Array.to_list argv)))
  end
