(* Determinism and equivalence of the parallel batch scheduler (Parsolve):
   sharding a batch across domains, at any jobs setting, must
   return exactly the sequential engine's answers; merging per-domain
   DYNSUM caches must never change an answer; traces written through the
   shared writer must interleave whole lines only.

   All runs use a budget generous enough that every query resolves: a
   resolved demand query is the exact CFL answer and hence independent of
   sharding and cache warmth, which is what makes cross-jobs equality a
   deterministic property rather than a flaky one. *)

module Hstack = Pts_util.Hstack
module Client = Pts_clients.Client
module Pipeline = Pts_clients.Pipeline
module Suite = Pts_workload.Suite

let conf = Engine.conf ~budget_limit:10_000_000 ~max_field_depth:4 ()

let pl = lazy (Suite.pipeline "jack")

let queries = lazy (Pts_clients.Safecast.queries (Lazy.force pl))

let qarr () =
  Array.of_list (List.map (fun q -> Parsolve.query q.Client.q_node) (Lazy.force queries))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------- parallel == sequential, per engine ------------------- *)

let test_engine_jobs_equal engine_name () =
  let pl = Lazy.force pl in
  let seq = Engine.create ~conf engine_name pl.Pipeline.pag in
  let expected =
    List.map (fun q -> seq.Engine.points_to q.Client.q_node) (Lazy.force queries)
  in
  List.iter
    (fun jobs ->
      let r = Parsolve.run ~conf ~jobs ~engine:engine_name pl.Pipeline.pag (qarr ()) in
      List.iteri
        (fun i expect ->
          if not (Query.equal_outcome expect r.Parsolve.outcomes.(i)) then
            Alcotest.failf "%s: query %d differs from sequential at jobs=%d" engine_name i jobs)
        expected)
    [ 1; 2; 4 ]

(* ----------------------- scheduler accounting ----------------------------- *)

let test_steal_accounting () =
  let pl = Lazy.force pl in
  let n = Array.length (qarr ()) in
  let r = Parsolve.run ~conf ~jobs:4 ~engine:"dynsum" pl.Pipeline.pag (qarr ()) in
  Alcotest.(check int) "one actual cost per query" n (Array.length r.Parsolve.actual_steps);
  Alcotest.(check (list int)) "one report per domain" [ 0; 1; 2; 3 ]
    (List.map (fun d -> d.Parsolve.dr_domain) r.Parsolve.reports);
  let report_steals =
    List.fold_left (fun acc d -> acc + d.Parsolve.dr_steals) 0 r.Parsolve.reports
  in
  Alcotest.(check int) "per-domain steals sum to the total" r.Parsolve.steals report_steals;
  let report_queries =
    List.fold_left (fun acc d -> acc + d.Parsolve.dr_queries) 0 r.Parsolve.reports
  in
  Alcotest.(check int) "every query answered exactly once" n report_queries;
  Alcotest.(check int) "per-domain summaries sum to the derivations" r.Parsolve.merged_summaries
    (List.fold_left (fun acc d -> acc + d.Parsolve.dr_summaries) 0 r.Parsolve.reports)

(* One domain pops its deque in arrival order, so every query charges
   exactly the steps it charges in a sequential loop over the batch: a
   DYNSUM engine's per-query cost depends on which summaries earlier
   queries left behind, so any reordering shows up here. *)
let test_arrival_order_at_one_domain () =
  let pl = Lazy.force pl in
  let d = Dynsum.create ~conf pl.Pipeline.pag in
  let expected =
    Array.map
      (fun q ->
        let before = Budget.total_steps (Dynsum.budget d) in
        ignore (Dynsum.points_to d q.Parsolve.node);
        Budget.total_steps (Dynsum.budget d) - before)
      (qarr ())
  in
  let r = Parsolve.run ~conf ~jobs:1 ~engine:"dynsum" pl.Pipeline.pag (qarr ()) in
  Alcotest.(check (array int)) "per-query steps of a sequential loop" expected
    r.Parsolve.actual_steps

(* --------------------- tier merging preserves answers --------------------- *)

let test_snapshot_merge_preserves_answers () =
  let pl = Lazy.force pl in
  let pag = pl.Pipeline.pag in
  let qs = Lazy.force queries in
  let half1 = List.filteri (fun i _ -> i mod 2 = 0) qs in
  let half2 = List.filteri (fun i _ -> i mod 2 = 1) qs in
  let d1 = Dynsum.create ~conf pag and d2 = Dynsum.create ~conf pag in
  List.iter (fun q -> ignore (Dynsum.points_to d1 q.Client.q_node)) half1;
  List.iter (fun q -> ignore (Dynsum.points_to d2 q.Client.q_node)) half2;
  let tier = Dynsum.base_create () in
  ignore (Dynsum.base_add tier (Dynsum.snapshot d1));
  ignore (Dynsum.base_add tier (Dynsum.snapshot d2));
  Alcotest.(check bool) "tier is non-empty" true (Dynsum.base_length tier > 0);
  let seeded = Dynsum.create ~conf pag in
  Dynsum.set_base seeded tier;
  let fresh = Dynsum.create ~conf pag in
  List.iter
    (fun q ->
      let a = Dynsum.points_to seeded q.Client.q_node in
      let b = Dynsum.points_to fresh q.Client.q_node in
      if not (Query.equal_outcome a b) then
        Alcotest.failf "merged tier changed the answer for %s" q.Client.q_desc)
    qs;
  Alcotest.(check bool) "the seeded engine read the tier" true (Dynsum.base_hits tier > 0)

let test_snapshot_union_is_idempotent () =
  let pl = Lazy.force pl in
  let d = Dynsum.create ~conf pl.Pipeline.pag in
  List.iter (fun q -> ignore (Dynsum.points_to d q.Client.q_node)) (Lazy.force queries);
  let s = Dynsum.snapshot d in
  let tier = Dynsum.base_create () in
  let n = Dynsum.base_add tier s in
  Alcotest.(check int) "first add takes every summary" (Dynsum.summary_count d) n;
  Alcotest.(check int) "re-adding adds nothing" 0 (Dynsum.base_add tier s + Dynsum.base_add tier s);
  Alcotest.(check int) "tier holds one copy" n (Dynsum.base_length tier)

(* ------------------ export matrix: caller tier or none -------------------- *)

(* The bytes [Dynsum.save_base] writes for a tier. Saved tiers are
   sorted and base-tier memos are never exported, so the bytes must not
   depend on how the batch was scheduled. *)
let save_bytes tier =
  let path = Filename.temp_file "ptsto_cache" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dynsum.save_base tier (Lazy.force pl).Pipeline.pag path;
      In_channel.with_open_bin path In_channel.input_all)

let tier_of engines =
  let tier = Dynsum.base_create () in
  List.iter (fun d -> ignore (Dynsum.base_add tier (Dynsum.snapshot d))) engines;
  tier

(* Every (jobs, tier) cell must agree with one sequential DYNSUM engine:
   same outcomes, and at least its summaries derived (exactly them on one
   domain; several domains may derive a key twice). A caller-owned tier
   receives every worker's snapshot, so it must end up holding exactly
   the sequential engine's summaries, and save to its bytes. *)
let sequential =
  lazy
    (let pl = Lazy.force pl in
     let d = Dynsum.create ~conf pl.Pipeline.pag in
     let outs = List.map (fun q -> Dynsum.points_to d q.Client.q_node) (Lazy.force queries) in
     (outs, Dynsum.summary_count d, save_bytes (tier_of [ d ])))

let check_outcomes expected r =
  List.iteri
    (fun i expect ->
      if not (Query.equal_outcome expect r.Parsolve.outcomes.(i)) then
        Alcotest.failf "query %d differs from sequential" i)
    expected

let test_export_cell ~jobs ~caller_tier () =
  let pl = Lazy.force pl in
  let expected, seq_summaries, seq_bytes = Lazy.force sequential in
  let tier = if caller_tier then Some (Dynsum.base_create ~capacity:0 ()) else None in
  let r = Parsolve.run ~conf ~jobs ?base:tier ~engine:"dynsum" pl.Pipeline.pag (qarr ()) in
  check_outcomes expected r;
  if jobs = 1 then
    Alcotest.(check int) "one domain derives the sequential summaries" seq_summaries
      r.Parsolve.merged_summaries
  else
    Alcotest.(check bool) "domains derive at least the sequential summaries" true
      (r.Parsolve.merged_summaries >= seq_summaries);
  match tier with
  | None -> ()
  | Some b ->
    Alcotest.(check int) "caller tier holds the sequential summaries" seq_summaries
      (Dynsum.base_length b);
    Alcotest.(check bool) "tier bytes = sequential saved bytes" true
      (String.equal seq_bytes (save_bytes b))

(* What [ptsto client --cache F --jobs 2] does twice: the first run
   grows a fresh tier and saves it; the second loads every summary back
   and derives none, and both save the sequential engine's bytes. *)
let test_cache_round_trip_jobs2 () =
  let pl = Lazy.force pl in
  let pag = pl.Pipeline.pag in
  let expected, seq_summaries, seq_bytes = Lazy.force sequential in
  let path = Filename.temp_file "ptsto_cache" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let first = Dynsum.base_create () in
      check_outcomes expected (Parsolve.run ~conf ~jobs:2 ~base:first ~engine:"dynsum" pag (qarr ()));
      Dynsum.save_base first pag path;
      let second = Dynsum.base_create () in
      (match Dynsum.load_base second pag path with
      | Ok n -> Alcotest.(check int) "loaded = saved" seq_summaries n
      | Error e -> Alcotest.fail e);
      let r = Parsolve.run ~conf ~jobs:2 ~base:second ~engine:"dynsum" pag (qarr ()) in
      check_outcomes expected r;
      Alcotest.(check int) "warm run derives nothing" 0
        (Pts_util.Stats.get r.Parsolve.stats "summary_misses");
      Alcotest.(check bool) "both runs save the sequential bytes" true
        (String.equal seq_bytes (save_bytes first) && String.equal seq_bytes (save_bytes second)))

(* With no caller tier there is no tier at all: no miss probes an empty
   table, and the run misses exactly the summaries one sequential engine
   misses. *)
let test_no_caller_tier_no_tier () =
  let pl = Lazy.force pl in
  let expected, _, _ = Lazy.force sequential in
  let d = Dynsum.create ~conf pl.Pipeline.pag in
  List.iter (fun q -> ignore (Dynsum.points_to d q.Client.q_node)) (Lazy.force queries);
  let r = Parsolve.run ~conf ~engine:"dynsum" pl.Pipeline.pag (qarr ()) in
  List.iteri
    (fun i expect ->
      if not (Query.equal_outcome expect r.Parsolve.outcomes.(i)) then
        Alcotest.failf "query %d differs from sequential" i)
    expected;
  let counters = List.map fst (Pts_util.Stats.to_list r.Parsolve.stats) in
  Alcotest.(check bool) "no base_hits counter" false (List.mem "base_hits" counters);
  Alcotest.(check bool) "no base_misses counter" false (List.mem "base_misses" counters);
  let misses s = Pts_util.Stats.get s "summary_misses" in
  Alcotest.(check bool) "summaries were missed" true (misses r.Parsolve.stats > 0);
  Alcotest.(check int) "summary_misses = sequential" (misses (Dynsum.stats d))
    (misses r.Parsolve.stats)

let export_matrix =
  List.concat_map
    (fun jobs ->
      List.map
        (fun caller_tier ->
          Alcotest.test_case
            (Printf.sprintf "jobs=%d %s" jobs (if caller_tier then "caller tier" else "no tier"))
            `Quick
            (test_export_cell ~jobs ~caller_tier))
        [ false; true ])
    [ 1; 2; 4 ]

(* ------------------------ snapshot order is [compare] ---------------------- *)

(* A saved tier sorts its entries with a key comparator; it must
   reproduce the order polymorphic [compare] gives whole images, or saved
   cache bytes drift. The file is [ptsto-dynsum-cache-v2]: a header, then
   the images. *)
type image = int * int list * int * int list * (int * int list * int) list * int list

let test_snapshot_order_is_compare () =
  let pl = Lazy.force pl in
  let pag = pl.Pipeline.pag in
  let qs = Lazy.force queries in
  let in_compare_order what tier =
    let path = Filename.temp_file "ptsto_cache" ".bin" in
    let _, _, _, _, (images : image list) =
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Dynsum.save_base tier pag path;
          (In_channel.with_open_bin path Marshal.from_channel
            : string * (int * int * int * int * int * int * int * int) * int * int * image list))
    in
    let keys = List.map (fun (n, syms, st, _, _, _) -> (n, syms, st)) images in
    Alcotest.(check bool) (what ^ " has several entries") true (List.length images > 1);
    Alcotest.(check bool) (what ^ " sorted by compare") true (images = List.sort compare images);
    Alcotest.(check bool) (what ^ " keys unique") true (List.length keys = List.length (List.sort_uniq compare keys))
  in
  let whole = Dynsum.create ~conf pag in
  List.iter (fun q -> ignore (Dynsum.points_to whole q.Client.q_node)) qs;
  in_compare_order "jack tier" (tier_of [ whole ]);
  let d1 = Dynsum.create ~conf pag and d2 = Dynsum.create ~conf pag in
  List.iteri (fun i q -> if i mod 2 = 0 then ignore (Dynsum.points_to d1 q.Client.q_node)) qs;
  List.iteri (fun i q -> if i mod 3 = 0 then ignore (Dynsum.points_to d2 q.Client.q_node)) qs;
  in_compare_order "two-engine tier" (tier_of [ d1; d2 ])

(* ------------------------- trace line integrity --------------------------- *)

let test_parallel_trace_whole_lines () =
  let pl = Lazy.force pl in
  let path = Filename.temp_file "ptsto_trace" ".jsonl" in
  let w = Trace.writer_to_file path in
  (* tiny flush threshold forces many buffer handoffs to the shared writer *)
  ignore
    (Parsolve.run ~conf ~trace_writer:w ~jobs:4 ~engine:"dynsum" pl.Pipeline.pag (qarr ()));
  Trace.writer_close w;
  let ic = open_in path in
  let lines = ref 0 and starts = ref 0 and ends = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       if
         not
           (String.length line > 1
           && line.[0] = '{'
           && line.[String.length line - 1] = '}'
           && contains line "\"ev\":")
       then Alcotest.failf "mangled trace line %d: %s" !lines line;
       if contains line "\"ev\":\"query_start\"" then incr starts;
       if contains line "\"ev\":\"query_end\"" then incr ends
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "one query_start per query" (Array.length (qarr ())) !starts;
  Alcotest.(check int) "one query_end per query" (Array.length (qarr ())) !ends

(* ------------------------ hash-cons domain-locality ------------------------ *)

let test_hstack_rebase_across_domains () =
  let foreign = Domain.join (Domain.spawn (fun () -> Hstack.of_list [ 3; 1; 4; 1 ])) in
  (* reading a foreign stack is fine; rebase re-interns it locally *)
  let r = Hstack.rebase foreign in
  Alcotest.(check (list int)) "symbols survive the crossing" [ 3; 1; 4; 1 ] (Hstack.to_list r);
  Alcotest.(check bool) "rebased stack is hash-consed in this domain" true
    (Hstack.equal r (Hstack.of_list [ 3; 1; 4; 1 ]))

(* ------------------------------ validations ------------------------------- *)

let test_run_validations () =
  let pl = Lazy.force pl in
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Parsolve.run: jobs must be >= 1") (fun () ->
      ignore (Parsolve.run ~jobs:0 ~engine:"dynsum" pl.Pipeline.pag [||]));
  (match Parsolve.run ~engine:"nosuch" pl.Pipeline.pag [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown engine accepted");
  let unfrozen = Pag.create pl.Pipeline.prog in
  Alcotest.check_raises "unfrozen PAG rejected"
    (Invalid_argument "Pag.packed: call Pag.freeze first") (fun () ->
      ignore (Parsolve.run ~engine:"dynsum" unfrozen [||]))

let () =
  Alcotest.run "parallel"
    [
      ( "equivalence",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ " jobs 1/2/4") `Quick (test_engine_jobs_equal name))
          (Engine.names ()) );
      ( "scheduler",
        [
          Alcotest.test_case "steal accounting" `Quick test_steal_accounting;
          Alcotest.test_case "arrival order at one domain" `Quick test_arrival_order_at_one_domain;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "merge preserves answers" `Quick test_snapshot_merge_preserves_answers;
          Alcotest.test_case "union idempotent" `Quick test_snapshot_union_is_idempotent;
          Alcotest.test_case "order is compare" `Quick test_snapshot_order_is_compare;
          Alcotest.test_case "no caller tier, no tier" `Quick test_no_caller_tier_no_tier;
        ] );
      ("export", export_matrix);
      ( "persistence",
        [ Alcotest.test_case "cache round trip at jobs 2" `Quick test_cache_round_trip_jobs2 ] );
      ("trace", [ Alcotest.test_case "whole lines only" `Quick test_parallel_trace_whole_lines ]);
      ("hstack", [ Alcotest.test_case "rebase across domains" `Quick test_hstack_rebase_across_domains ]);
      ("validation", [ Alcotest.test_case "argument checks" `Quick test_run_validations ]);
    ]
