(* Determinism and equivalence of the parallel batch scheduler (Parsolve):
   sharding a batch across domains, at any jobs/rounds setting, must
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

let test_rounds_equal () =
  let pl = Lazy.force pl in
  let seq = Engine.create ~conf "dynsum" pl.Pipeline.pag in
  let expected =
    List.map (fun q -> seq.Engine.points_to q.Client.q_node) (Lazy.force queries)
  in
  let r = Parsolve.run ~conf ~jobs:2 ~rounds:3 ~engine:"dynsum" pl.Pipeline.pag (qarr ()) in
  Alcotest.(check bool) "summaries were merged" true (r.Parsolve.merged_summaries > 0);
  Alcotest.(check int) "one report per (round, domain)" 6 (List.length r.Parsolve.reports);
  List.iteri
    (fun i expect ->
      if not (Query.equal_outcome expect r.Parsolve.outcomes.(i)) then
        Alcotest.failf "dynsum: query %d differs from sequential at jobs=2 rounds=3" i)
    expected

(* ----------------------- scheduler accounting ----------------------------- *)

let test_steal_accounting () =
  let pl = Lazy.force pl in
  let n = Array.length (qarr ()) in
  let r = Parsolve.run ~conf ~jobs:4 ~rounds:2 ~engine:"dynsum" pl.Pipeline.pag (qarr ()) in
  Alcotest.(check int) "one actual cost per query" n (Array.length r.Parsolve.actual_steps);
  let report_steals =
    List.fold_left (fun acc d -> acc + d.Parsolve.dr_steals) 0 r.Parsolve.reports
  in
  Alcotest.(check int) "per-domain steals sum to the total" r.Parsolve.steals report_steals;
  let report_queries =
    List.fold_left (fun acc d -> acc + d.Parsolve.dr_queries) 0 r.Parsolve.reports
  in
  Alcotest.(check int) "every query answered exactly once" n report_queries;
  Alcotest.(check bool) "unique summaries bounded by derivations" true
    (r.Parsolve.unique_summaries <= r.Parsolve.merged_summaries);
  Alcotest.(check int) "final pool length matches the count"
    r.Parsolve.unique_summaries
    (Dynsum.snapshot_length (Lazy.force r.Parsolve.summaries))

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

(* --------------------- cache merging preserves answers -------------------- *)

let test_snapshot_merge_preserves_answers () =
  let pl = Lazy.force pl in
  let pag = pl.Pipeline.pag in
  let qs = Lazy.force queries in
  let half1 = List.filteri (fun i _ -> i mod 2 = 0) qs in
  let half2 = List.filteri (fun i _ -> i mod 2 = 1) qs in
  let d1 = Dynsum.create ~conf pag and d2 = Dynsum.create ~conf pag in
  List.iter (fun q -> ignore (Dynsum.points_to d1 q.Client.q_node)) half1;
  List.iter (fun q -> ignore (Dynsum.points_to d2 q.Client.q_node)) half2;
  let merged = Dynsum.snapshot_union [ Dynsum.snapshot d1; Dynsum.snapshot d2 ] in
  Alcotest.(check bool) "union is non-empty" true (Dynsum.snapshot_length merged > 0);
  let seeded = Dynsum.create ~conf pag in
  Alcotest.(check bool) "absorb adds entries" true (Dynsum.absorb seeded merged > 0);
  let fresh = Dynsum.create ~conf pag in
  List.iter
    (fun q ->
      let a = Dynsum.points_to seeded q.Client.q_node in
      let b = Dynsum.points_to fresh q.Client.q_node in
      if not (Query.equal_outcome a b) then
        Alcotest.failf "merged cache changed the answer for %s" q.Client.q_desc)
    qs

let test_snapshot_union_is_idempotent () =
  let pl = Lazy.force pl in
  let d = Dynsum.create ~conf pl.Pipeline.pag in
  List.iter (fun q -> ignore (Dynsum.points_to d q.Client.q_node)) (Lazy.force queries);
  let s = Dynsum.snapshot d in
  Alcotest.(check int) "union with itself adds nothing"
    (Dynsum.snapshot_length (Dynsum.snapshot_union [ s ]))
    (Dynsum.snapshot_length (Dynsum.snapshot_union [ s; s; s ]))

(* ----------------- export matrix: eager and deferred rounds ---------------- *)

(* Absorb a snapshot into a fresh engine and serialise its cache;
   snapshots are sorted and base-tier memos are never exported, so the
   bytes must not depend on how the batch was scheduled. *)
let save_bytes snapshot =
  let pl = Lazy.force pl in
  let d = Dynsum.create ~conf pl.Pipeline.pag in
  ignore (Dynsum.absorb d snapshot);
  let path = Filename.temp_file "ptsto_cache" ".bin" in
  Dynsum.save_cache d path;
  let ic = open_in_bin path in
  let b = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  b

(* Every (jobs, rounds, tier) cell must agree with one
   sequential DYNSUM engine: same outcomes, and a final pool — built on
   demand from exported snapshots plus unexported engines — whose cache
   bytes are the sequential engine's. A caller-owned tier is exported
   every round, so it must end up holding exactly the pool's keys. *)
let sequential =
  lazy
    (let pl = Lazy.force pl in
     let d = Dynsum.create ~conf pl.Pipeline.pag in
     let outs = List.map (fun q -> Dynsum.points_to d q.Client.q_node) (Lazy.force queries) in
     (outs, save_bytes (Dynsum.snapshot d)))

let test_export_cell ~jobs ~rounds ~caller_tier () =
  let pl = Lazy.force pl in
  let expected, seq_bytes = Lazy.force sequential in
  let tier = if caller_tier then Some (Dynsum.base_create ~capacity:0 ()) else None in
  let r =
    Parsolve.run ~conf ~jobs ~rounds ?base:tier ~engine:"dynsum" pl.Pipeline.pag (qarr ())
  in
  List.iteri
    (fun i expect ->
      if not (Query.equal_outcome expect r.Parsolve.outcomes.(i)) then
        Alcotest.failf "query %d differs from sequential" i)
    expected;
  if jobs = 1 && rounds = 1 then
    Alcotest.(check bool) "one engine: pool not built" false (Lazy.is_val r.Parsolve.summaries);
  let pool = Lazy.force r.Parsolve.summaries in
  Alcotest.(check bool) "summaries were derived" true (r.Parsolve.merged_summaries > 0);
  Alcotest.(check int) "unique = pool length" r.Parsolve.unique_summaries
    (Dynsum.snapshot_length pool);
  Alcotest.(check bool) "unique <= merged" true
    (r.Parsolve.unique_summaries <= r.Parsolve.merged_summaries);
  Alcotest.(check bool) "pool bytes = sequential cache bytes" true
    (String.equal seq_bytes (save_bytes pool));
  match tier with
  | None ->
    if rounds = 1 then
      Alcotest.(check int) "one round publishes nothing to the internal tier" 0
        r.Parsolve.base_size
  | Some b ->
    Alcotest.(check int) "caller tier grew by unique" r.Parsolve.unique_summaries
      (Dynsum.base_length b);
    Alcotest.(check int) "base_size reports the caller tier" (Dynsum.base_length b)
      r.Parsolve.base_size

(* cell names carry "steal", the one scheduling policy *)
let export_matrix =
  List.concat_map
    (fun jobs ->
      List.concat_map
        (fun rounds ->
          List.map
            (fun caller_tier ->
              Alcotest.test_case
                (Printf.sprintf "jobs=%d rounds=%d steal %s" jobs rounds
                   (if caller_tier then "caller tier" else "internal tier"))
                `Quick
                (test_export_cell ~jobs ~rounds ~caller_tier))
            [ false; true ])
        [ 1; 2 ])
    [ 1; 2; 4 ]

(* ------------------------ snapshot order is [compare] ---------------------- *)

(* Snapshots sort with a key comparator; it must reproduce the order
   polymorphic [compare] gave whole images, or saved cache bytes and base
   insertion order drift. Keys are unique, so sorted-and-unique keys are
   exactly that order. *)
let test_snapshot_order_is_compare () =
  let pl = Lazy.force pl in
  let pag = pl.Pipeline.pag in
  let qs = Lazy.force queries in
  let in_compare_order what s =
    let keys = Dynsum.snapshot_keys s in
    Alcotest.(check bool) (what ^ " has several entries") true (List.length keys > 1);
    Alcotest.(check bool) (what ^ " keys sorted by compare, no duplicates") true
      (keys = List.sort_uniq compare keys)
  in
  let whole = Dynsum.create ~conf pag in
  List.iter (fun q -> ignore (Dynsum.points_to whole q.Client.q_node)) qs;
  in_compare_order "jack snapshot" (Dynsum.snapshot whole);
  let d1 = Dynsum.create ~conf pag and d2 = Dynsum.create ~conf pag in
  List.iteri (fun i q -> if i mod 2 = 0 then ignore (Dynsum.points_to d1 q.Client.q_node)) qs;
  List.iteri (fun i q -> if i mod 3 = 0 then ignore (Dynsum.points_to d2 q.Client.q_node)) qs;
  in_compare_order "two-engine union" (Dynsum.snapshot_union [ Dynsum.snapshot d1; Dynsum.snapshot d2 ])

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
  Alcotest.check_raises "rounds must be positive"
    (Invalid_argument "Parsolve.run: rounds must be >= 1") (fun () ->
      ignore (Parsolve.run ~rounds:0 ~engine:"dynsum" pl.Pipeline.pag [||]));
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
          (Engine.names ())
        @ [ Alcotest.test_case "dynsum jobs=2 rounds=3" `Quick test_rounds_equal ] );
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
        ] );
      ("export", export_matrix);
      ("trace", [ Alcotest.test_case "whole lines only" `Quick test_parallel_trace_whole_lines ]);
      ("hstack", [ Alcotest.test_case "rebase across domains" `Quick test_hstack_rebase_across_domains ]);
      ("validation", [ Alcotest.test_case "argument checks" `Quick test_run_validations ]);
    ]
