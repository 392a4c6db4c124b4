(* Incremental PAG edits: the epoch/delta/view contract and its
   consumers. Covers:

   - delete-then-readd is a perfect roundtrip (graph hash, rows, edge
     counts, node flags all restored);
   - [View.fold] visits exactly the live base edges, then the overlay
     edges, after random edit bursts;
   - after every burst, live engines invalidated through Incr answer
     exactly like fresh engines on a from-scratch rebuild that replayed
     the same scripts — while retaining most of their summary caches;
   - a persisted dynsum cache is rejected once the graph hash moves,
     even when the edit preserves every edge count (satellite: stale
     cache rejection);
   - a witness captured pre-edit over a since-deleted edge fails
     validation instead of crashing. *)

module Suite = Pts_workload.Suite
module Editscript = Pts_workload.Editscript
module Pipeline = Pts_clients.Pipeline
module Client = Pts_clients.Client
module Prng = Pts_util.Prng

let check = Alcotest.check

(* Editing mutates the PAG in place, so every test builds its own
   pipeline — the memoised [Suite.pipeline] must never be edited. *)
let private_pipeline bench = Pipeline.of_source (Suite.source bench)

let conf = Engine.conf ~budget_limit:2_000_000 ()

(* ------------------- delete-then-readd roundtrip --------------------- *)

let find_assign pag =
  let rec go v =
    if v >= Pag.node_count pag then Alcotest.fail "no assign edge in benchmark"
    else
      match Support.row_nodes pag Pag.View.assign_in v with
      | src :: _ -> (src, v)
      | [] -> go (v + 1)
  in
  go 0

let test_delete_readd () =
  let pl = private_pipeline "jack" in
  let pag = pl.Pipeline.pag in
  let src, dst = find_assign pag in
  let e = Pag.Eassign { src; dst } in
  let h0 = Pag.graph_hash pag in
  let e0 = Pag.epoch pag in
  let c0 = (Pag.edge_counts pag).Pag.n_assign in
  let in0 = List.sort compare (Support.row_nodes pag Pag.View.assign_in dst) in
  let out0 = List.sort compare (Support.row_nodes pag Pag.View.assign_out src) in
  let commit = Pag.apply_edits pag [ Pag.Edel e ] in
  check Alcotest.int "one deletion" 1 commit.Pag.c_deleted;
  check Alcotest.bool "dirty set holds both endpoints" true
    (List.mem src commit.Pag.c_dirty && List.mem dst commit.Pag.c_dirty);
  check Alcotest.bool "hash moved" true (Pag.graph_hash pag <> h0);
  check Alcotest.bool "edge gone from view" false (List.mem src (Support.row_nodes pag Pag.View.assign_in dst));
  check Alcotest.int "assign count down" (c0 - 1) (Pag.edge_counts pag).Pag.n_assign;
  ignore (Pag.apply_edits pag [ Pag.Eadd e ]);
  check Alcotest.int "hash restored (xor is self-inverse)" h0 (Pag.graph_hash pag);
  check (Alcotest.list Alcotest.int) "in-list restored" in0
    (List.sort compare (Support.row_nodes pag Pag.View.assign_in dst));
  check (Alcotest.list Alcotest.int) "out-list restored" out0
    (List.sort compare (Support.row_nodes pag Pag.View.assign_out src));
  check Alcotest.int "assign count restored" c0 (Pag.edge_counts pag).Pag.n_assign;
  check Alcotest.int "epoch bumped per batch" (e0 + 2) (Pag.epoch pag);
  (* a no-op batch (deleting a missing edge, re-adding a present one)
     still bumps the epoch but changes nothing else *)
  let commit = Pag.apply_edits pag [ Pag.Eadd e; Pag.Edel (Pag.Eassign { src = dst; dst = src }) ] in
  check Alcotest.int "no-op batch inserts nothing" 0 commit.Pag.c_inserted;
  check Alcotest.int "no-op batch deletes nothing" 0 commit.Pag.c_deleted;
  check Alcotest.int "hash still restored" h0 (Pag.graph_hash pag)

(* ------------------- the reader after edits -------------------------- *)

(* A row as the kernel walks it: live base edges, then overlay edges. *)
let composed pag side v =
  let s = Pag.View.slab pag side in
  let labelled = Array.length s.Pag.aux > 0 in
  let base = ref [] in
  for k = s.Pag.off.(v) to s.Pag.off.(v + 1) - 1 do
    let a = if labelled then s.Pag.aux.(k) else 0 and x = s.Pag.dst.(k) in
    if not (Pag.View.tombstoned pag side && Pag.View.is_deleted pag side v a x) then
      base := (a, x) :: !base
  done;
  List.rev !base @ Pag.View.added pag side v

let test_view_consistency () =
  let pl = private_pipeline "jack" in
  let pag = pl.Pipeline.pag in
  let rng = Prng.create 1234 in
  for _ = 1 to 3 do
    ignore (Pag.apply_edits pag (Editscript.burst rng pag ~n:12))
  done;
  check Alcotest.bool "overlay present" true (Pag.View.overlaid pag);
  let pair = Alcotest.pair Alcotest.int Alcotest.int in
  for v = 0 to Pag.node_count pag - 1 do
    let ctx = Printf.sprintf "node %d" v in
    List.iter
      (fun side -> check (Alcotest.list pair) ctx (composed pag side v) (Support.row pag side v))
      Pag.View.
        [ new_in; assign_in; assign_out; global_out; load_in; store_out; entry_in; exit_out ];
    check Alcotest.bool ctx (Support.row pag Pag.View.new_in v <> []) (Pag.View.has_new_in pag v)
  done

(* ------------- incremental vs rebuild, retention > 0 ------------------ *)

let sample_queries pl =
  Pts_clients.Safecast.queries pl
  @ List.filteri (fun i _ -> i mod 3 = 0) (Pts_clients.Nullderef.queries pl)

let engine_names = [ "norefine"; "refinepts"; "dynsum" ]

let build_engines pag =
  List.map
    (fun name -> Engine.create ~conf:(Engine.conf ~budget_limit:2_000_000 ()) name pag)
    engine_names

let outcomes e queries =
  List.map (fun q -> e.Engine.points_to q.Client.q_node) queries

let test_incremental_matches_rebuild () =
  let source = Suite.source "jack" in
  let pl = Pipeline.of_source source in
  let incr = Incr.create pl.Pipeline.pag in
  let engines = build_engines pl.Pipeline.pag in
  List.iter (Incr.register incr) engines;
  let queries = sample_queries pl in
  (* warm the caches so the bursts have summaries to retain *)
  List.iter (fun e -> ignore (outcomes e queries)) engines;
  let rng = Prng.create 5 in
  let scripts = ref [] in
  let retained = ref 0 in
  for burst = 1 to 2 do
    let script = Editscript.burst rng pl.Pipeline.pag ~n:6 in
    scripts := !scripts @ [ script ];
    let stats = Incr.apply incr script in
    retained := !retained + stats.Incr.i_retained;
    let rpl = Pipeline.of_source source in
    List.iter (fun s -> ignore (Pag.apply_edits rpl.Pipeline.pag s)) !scripts;
    check Alcotest.int
      (Printf.sprintf "burst %d: replay reproduces the graph hash" burst)
      (Pag.graph_hash pl.Pipeline.pag)
      (Pag.graph_hash rpl.Pipeline.pag);
    let rebuilt = build_engines rpl.Pipeline.pag in
    let rqueries = sample_queries rpl in
    List.iter2
      (fun live fresh ->
        List.iter2
          (fun a b ->
            check Alcotest.bool
              (Printf.sprintf "burst %d: %s outcome equal" burst live.Engine.name)
              true (Query.equal_outcome a b))
          (outcomes live queries) (outcomes fresh rqueries))
      engines rebuilt
  done;
  check Alcotest.bool "summaries were retained across bursts" true (!retained > 0)

(* -------------------- stale persisted cache ------------------------- *)

(* The edit deletes one assign edge and inserts a different one, so every
   edge count — the legacy fingerprint — is unchanged; only the graph
   hash can catch the staleness. *)
let test_stale_cache_rejected () =
  let pl = private_pipeline "jack" in
  let pag = pl.Pipeline.pag in
  let d = Dynsum.create ~conf pag in
  List.iteri (fun i q -> if i < 5 then ignore (Dynsum.points_to d q.Client.q_node))
    (sample_queries pl);
  check Alcotest.bool "something cached" true (Dynsum.summary_count d > 0);
  let tier = Dynsum.base_create () in
  ignore (Dynsum.base_add tier (Dynsum.snapshot d));
  let path = Filename.temp_file "ptsto-incr" ".cache" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dynsum.save_base tier pag path;
      (match Dynsum.load_base (Dynsum.base_create ()) pag path with
      | Ok n -> check Alcotest.bool "same-graph load succeeds" true (n > 0)
      | Error e -> Alcotest.failf "same-graph load failed: %s" e);
      let src, dst = find_assign pag in
      let other =
        let rec go v =
          if v >= Pag.node_count pag then Alcotest.fail "no insertion candidate"
          else if
            (not (Pag.is_obj pag v))
            && v <> dst
            && (not (List.mem src (Support.row_nodes pag Pag.View.assign_in v)))
            && v <> src
          then v
          else go (v + 1)
        in
        go 0
      in
      ignore
        (Pag.apply_edits pag
           [ Pag.Edel (Pag.Eassign { src; dst }); Pag.Eadd (Pag.Eassign { src; dst = other }) ]);
      let fresh = Dynsum.base_create () in
      (match Dynsum.load_base fresh pag path with
      | Ok _ -> Alcotest.fail "stale cache (count-preserving edit) was accepted"
      | Error msg ->
        check Alcotest.bool "error names the version mismatch" true
          (String.length msg > 0));
      check Alcotest.int "tier untouched" 0 (Dynsum.base_length fresh))

(* ------------- witness across a deleted edge: fail, not crash -------- *)

let incident_deletions pag v =
  let es = ref [] in
  let row side edit =
    List.iter (fun (a, x) -> es := Pag.Edel (edit a x) :: !es) (Support.row pag side v)
  in
  row Pag.View.new_in (fun _ o -> Pag.Enew { obj_ = o; dst = v });
  row Pag.View.assign_in (fun _ s -> Pag.Eassign { src = s; dst = v });
  row Pag.View.assign_out (fun _ d -> Pag.Eassign { src = v; dst = d });
  row Pag.View.global_in (fun _ s -> Pag.Eglobal { src = s; dst = v });
  row Pag.View.global_out (fun _ d -> Pag.Eglobal { src = v; dst = d });
  row Pag.View.load_in (fun f b -> Pag.Eload { base = b; fld = f; dst = v });
  row Pag.View.load_out (fun f d -> Pag.Eload { base = v; fld = f; dst = d });
  row Pag.View.store_in (fun f s -> Pag.Estore { base = v; fld = f; src = s });
  row Pag.View.store_out (fun f b -> Pag.Estore { base = b; fld = f; src = v });
  row Pag.View.entry_in (fun i a -> Pag.Eentry { site = i; actual = a; formal = v });
  row Pag.View.entry_out (fun i p -> Pag.Eentry { site = i; actual = v; formal = p });
  row Pag.View.exit_in (fun i r -> Pag.Eexit { site = i; retval = r; dst = v });
  row Pag.View.exit_out (fun i d -> Pag.Eexit { site = i; retval = v; dst = d });
  !es

let test_witness_after_delete () =
  let pl = private_pipeline "jack" in
  let pag = pl.Pipeline.pag in
  let d = Dynsum.create ~conf pag in
  (* find a query with a provable witness *)
  let found =
    List.find_map
      (fun q ->
        let node = q.Client.q_node in
        match Dynsum.points_to d node with
        | Query.Resolved ts -> (
          match Query.sites ts with
          | site :: _ -> (
            match Witness.explain pag node ~site with
            | Some steps -> Some (node, site, steps)
            | None -> None)
          | [] -> None)
        | Query.Exceeded -> None)
      (sample_queries pl)
  in
  let node, site, steps =
    match found with Some x -> x | None -> Alcotest.fail "no witness found on jack"
  in
  check Alcotest.bool "witness validates pre-edit" true
    (Witness.validate pag ~query:node ~site steps);
  (* sever every edge at the query node: whatever boundary edge or local
     summary the chain relied on at its first step is now gone *)
  ignore (Pag.apply_edits pag (incident_deletions pag node));
  check Alcotest.bool "witness fails validation post-delete (no crash)" false
    (Witness.validate pag ~query:node ~site steps)

let () =
  Alcotest.run "incr"
    [
      ( "pag",
        [
          Alcotest.test_case "delete then re-add roundtrip" `Quick test_delete_readd;
          Alcotest.test_case "view matches accessors after bursts" `Quick test_view_consistency;
        ] );
      ( "engines",
        [
          Alcotest.test_case "incremental matches rebuild, retention > 0" `Quick
            test_incremental_matches_rebuild;
        ] );
      ( "persistence",
        [ Alcotest.test_case "stale cache rejected on hash mismatch" `Quick test_stale_cache_rejected ] );
      ( "witness",
        [ Alcotest.test_case "deleted-edge witness fails, not crashes" `Quick test_witness_after_delete ] );
    ]
