(* The serve daemon: wire protocol, admission control, the
   cross-request summary tier (bounded eviction + epoch-keyed
   invalidation), and the line loop end to end.

   The load-bearing properties mirror the subsystem's acceptance bar:
   responses must be byte-identical to cold one-shot runs no matter what
   the tier did in between — hits, evictions, or an edit burst. *)

module J = Pts_core.Trace.Json
module Proto = Pts_serve.Proto
module Admit = Pts_serve.Admit
module Daemon = Pts_serve.Daemon
module Pipeline = Pts_clients.Pipeline
module G = Pts_workload.Genprog

let cfg =
  {
    G.name = "serve";
    seed = 11;
    n_elem_classes = 3;
    n_containers = 2;
    n_boxes = 2;
    n_lists = 1;
    n_factories = 2;
    n_utils = 1;
    util_chain = 3;
    n_apps = 3;
    n_globals = 2;
    churn = 2;
    null_rate = 0.3;
    bad_cast_rate = 0.3;
    shared_rate = 0.4;
    interact_rate = 0.4;
    n_taint_flows = 0;
    n_taint_clean = 0;
    n_taint_kill = 0;
    n_taint_weak = 0;
  }

(* Fresh pipeline per call — edit tests mutate the PAG in place, so the
   memoised [Support.build] pipeline must not be shared here. *)
let pipeline () = Pipeline.of_source (G.generate cfg)

let checkers () = Pts_taint.Registry.all ()

let daemon ?config () = Daemon.create ?config ~checkers:(checkers ()) (pipeline ())

let mk ?(id = J.Null) ?(client = "test") op = { Proto.rq_id = id; rq_client = client; rq_op = op }

let query ?budget ?(engine = "dynsum") client = mk (Proto.Query { client; engine; budget })

let member_str k j =
  match J.member k j with Some v -> J.to_string v | None -> Alcotest.failf "missing %S in %s" k (J.to_string j)

let is_ok j = match J.member "ok" j with Some (J.Bool b) -> b | _ -> false

let error_code j =
  match J.member "error" j with
  | Some e -> ( match J.member "code" e with Some (J.String c) -> c | _ -> "?")
  | None -> "?"

let int_field k j =
  match J.member k j with Some (J.Int n) -> n | _ -> Alcotest.failf "missing int %S in %s" k (J.to_string j)

(* ------------------------------------------------------------------ *)
(* Json.of_string                                                      *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "-42";
      "[1,2.5,\"x\",false,null]";
      "{\"a\":[{\"b\":\"\"}],\"c\":{}}";
      "\"line\\nbreak \\\"quoted\\\"\"";
    ]
  in
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok v -> Alcotest.(check string) s s (J.to_string v)
      | Error e -> Alcotest.failf "parse %S: %s" s e)
    cases

let test_json_numbers_and_escapes () =
  (match J.of_string "10" with Ok (J.Int 10) -> () | r -> Alcotest.failf "10: %s" (match r with Ok v -> J.to_string v | Error e -> e));
  (match J.of_string "1e3" with Ok (J.Float f) -> Alcotest.(check (float 0.0)) "1e3" 1000.0 f | _ -> Alcotest.fail "1e3 not Float");
  (match J.of_string "2.5" with Ok (J.Float _) -> () | _ -> Alcotest.fail "2.5 not Float");
  match J.of_string "\"caf\\u00e9\"" with
  | Ok (J.String s) -> Alcotest.(check string) "utf8" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape"

let test_json_errors () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok v -> Alcotest.failf "%S parsed as %s" s (J.to_string v)
      | Error e ->
        (* every error names a byte offset, so daemon logs are actionable *)
        Alcotest.(check bool) (s ^ " offset") true
          (String.exists (fun c -> c >= '0' && c <= '9') e))
    [ "{"; "{\"a\":}"; "[1,]"; "1 2"; ""; "\"unterminated"; "{\"a\" 1}"; "tru" ]

(* ------------------------------------------------------------------ *)
(* Proto                                                               *)
(* ------------------------------------------------------------------ *)

let test_proto_decode () =
  (match Proto.of_line "{\"op\":\"query\",\"client\":\"safecast\",\"id\":7}" with
  | Ok { Proto.rq_id = J.Int 7; rq_client = "default"; rq_op = Proto.Query q } ->
    Alcotest.(check string) "client" "safecast" q.client;
    Alcotest.(check string) "engine default" "dynsum" q.engine;
    Alcotest.(check bool) "budget default" true (q.budget = None)
  | Ok _ -> Alcotest.fail "decoded shape"
  | Error (c, m) -> Alcotest.failf "decode: %s %s" c m);
  (* a field the protocol no longer has is ignored like any unknown one *)
  (match Proto.of_line "{\"op\":\"query\",\"client\":\"safecast\",\"prune\":true}" with
  | Ok { Proto.rq_op = Proto.Query { client = "safecast"; _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "stale field: decoded shape"
  | Error (c, m) -> Alcotest.failf "stale field: %s %s" c m);
  (match Proto.of_line "{\"op\":\"edit\",\"edits\":3,\"seed\":9,\"client_id\":\"a\"}" with
  | Ok { Proto.rq_client = "a"; rq_op = Proto.Edit { edits = 3; seed = 9 }; _ } -> ()
  | _ -> Alcotest.fail "edit decode");
  (match Proto.of_line "not json" with
  | Error ("parse_error", _) -> ()
  | _ -> Alcotest.fail "garbage must be parse_error");
  match Proto.of_line "{\"op\":\"frobnicate\"}" with
  | Error ("bad_request", _) -> ()
  | _ -> Alcotest.fail "unknown op must be bad_request"

(* ------------------------------------------------------------------ *)
(* Admit                                                               *)
(* ------------------------------------------------------------------ *)

let test_admit_fair_share () =
  let a = Admit.create () in
  let ok l = Alcotest.(check bool) l true in
  ok "A1" (Admit.submit a ~client:"A" ~cost:1 "A1" = Ok ());
  ok "A2" (Admit.submit a ~client:"A" ~cost:1 "A2" = Ok ());
  ok "A3" (Admit.submit a ~client:"A" ~cost:1 "A3" = Ok ());
  ok "B1" (Admit.submit a ~client:"B" ~cost:1 "B1" = Ok ());
  let order = List.init 4 (fun _ -> Option.get (Admit.next a)) in
  (* round-robin across clients, FIFO within: A's flood only delays A *)
  Alcotest.(check (list string)) "drain order" [ "A1"; "B1"; "A2"; "A3" ] order;
  Alcotest.(check bool) "idle" true (Admit.next a = None)

let test_admit_capacity_and_cost () =
  let a = Admit.create ~capacity:2 ~max_cost:10 () in
  Alcotest.(check bool) "fits" true (Admit.submit a ~client:"A" ~cost:10 1 = Ok ());
  (match Admit.submit a ~client:"A" ~cost:11 2 with
  | Error ("oversized", _) -> ()
  | _ -> Alcotest.fail "cost above ceiling must be oversized");
  Alcotest.(check bool) "fits2" true (Admit.submit a ~client:"B" ~cost:1 3 = Ok ());
  (match Admit.submit a ~client:"C" ~cost:1 4 with
  | Error ("overloaded", _) -> ()
  | _ -> Alcotest.fail "full queue must be overloaded");
  Alcotest.(check int) "accepted" 2 (Admit.accepted a);
  Alcotest.(check int) "oversized" 1 (Admit.rejected_oversized a);
  Alcotest.(check int) "overloaded" 1 (Admit.rejected_overloaded a)

(* ------------------------------------------------------------------ *)
(* Daemon request handling                                             *)
(* ------------------------------------------------------------------ *)

let test_bad_requests () =
  let d = daemon () in
  let code rq = error_code (Daemon.handle d rq) in
  Alcotest.(check string) "unknown client" "bad_request" (code (query "nosuchclient"));
  Alcotest.(check string) "unknown engine" "bad_request" (code (query ~engine:"nosuch" "safecast"));
  (* the rejection must carry the registry-derived list, so a newly
     registered engine shows up without touching the daemon *)
  (match J.member "error" (Daemon.handle d (query ~engine:"nosuch" "safecast")) with
  | Some e ->
    let msg = match J.member "msg" e with Some (J.String m) -> m | _ -> "" in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      m = 0 || go 0
    in
    List.iter
      (fun n ->
        Alcotest.(check bool) (Printf.sprintf "lists %s" n) true (contains msg n))
      (Pts_core.Engine.names ())
  | None -> Alcotest.fail "unknown engine must produce an error object");
  Alcotest.(check string) "bad budget" "bad_request" (code (query ~budget:0 "safecast"));
  let capped = { Daemon.default_config with Daemon.c_max_budget = 100 } in
  let d2 = daemon ~config:capped () in
  Alcotest.(check string) "budget ceiling" "budget_too_large"
    (error_code (Daemon.handle d2 (query ~budget:1000 "safecast")));
  Alcotest.(check bool) "at ceiling ok" true (is_ok (Daemon.handle d2 (query ~budget:100 "safecast")))

let test_stats_and_shutdown () =
  let d = daemon () in
  ignore (Daemon.handle d (query "safecast"));
  let st = Daemon.handle d (mk Proto.Stats) in
  Alcotest.(check bool) "stats ok" true (is_ok st);
  Alcotest.(check int) "one query counted" 1 (int_field "query" (Option.get (J.member "requests" st)));
  Alcotest.(check bool) "base health present" true (J.member "base" st <> None);
  Alcotest.(check bool) "not shutting down" false (Daemon.shutting_down d);
  Alcotest.(check bool) "shutdown ok" true (is_ok (Daemon.handle d (mk Proto.Shutdown)));
  Alcotest.(check bool) "shutting down" true (Daemon.shutting_down d)

let test_check_request () =
  let d = daemon () in
  let all = Daemon.handle d (mk (Proto.Check { checkers = []; engine = "dynsum"; budget = None })) in
  Alcotest.(check bool) "check ok" true (is_ok all);
  let named =
    Daemon.handle d (mk (Proto.Check { checkers = [ "NullDeref" ]; engine = "dynsum"; budget = None }))
  in
  Alcotest.(check bool) "named ok (case-insensitive)" true (is_ok named);
  Alcotest.(check bool) "named subset" true (int_field "points" named <= int_field "points" all);
  match
    Daemon.handle d (mk (Proto.Check { checkers = [ "nosuch" ]; engine = "dynsum"; budget = None }))
  with
  | r -> Alcotest.(check string) "unknown checker" "bad_request" (error_code r)

(* ------------------------------------------------------------------ *)
(* The cross-request tier: eviction and invalidation                   *)
(* ------------------------------------------------------------------ *)

(* Flooding a tiny tier must stay within the bound, actually evict, and
   never change a single verdict byte: evicted summaries are re-derived,
   not lost. *)
let test_eviction_bounded_and_byte_identical () =
  let unbounded = daemon () in
  let tiny = daemon ~config:{ Daemon.default_config with Daemon.c_base_capacity = 32 } () in
  let requests = List.map (fun (key, _) -> query key) Daemon.clients in
  for pass = 1 to 3 do
    List.iter
      (fun rq ->
        let a = Daemon.handle unbounded rq in
        let b = Daemon.handle tiny rq in
        Alcotest.(check string)
          (Printf.sprintf "pass %d verdict bytes" pass)
          (member_str "verdicts" a) (member_str "verdicts" b))
      requests;
    let cap = Pts_core.Dynsum.base_capacity (Daemon.base tiny) in
    Alcotest.(check bool) "bounded" true (Pts_core.Dynsum.base_length (Daemon.base tiny) <= cap)
  done;
  Alcotest.(check bool) "flood evicted" true (Pts_core.Dynsum.base_evictions (Daemon.base tiny) > 0);
  Alcotest.(check bool) "unbounded never evicts" true
    (Pts_core.Dynsum.base_evictions (Daemon.base unbounded) = 0)

(* An edit burst must drop only the footprint-dirty tier entries — and
   post-edit answers must equal a fresh daemon built on an identically
   edited pipeline (epoch-keyed invalidation is exactly sufficient). *)
let test_edit_invalidation () =
  let d = daemon () in
  let warm () = List.iter (fun (key, _) -> ignore (Daemon.handle d (query key))) Daemon.clients in
  warm ();
  let before = Pts_core.Dynsum.base_length (Daemon.base d) in
  Alcotest.(check bool) "tier warmed" true (before > 0);
  let resp = Daemon.handle d (mk (Proto.Edit { edits = 5; seed = 23 })) in
  Alcotest.(check bool) "edit ok" true (is_ok resp);
  Alcotest.(check int) "epoch bumped" 1 (int_field "epoch" resp);
  let dropped = int_field "summaries_dropped" resp in
  let retained = int_field "summaries_retained" resp in
  Alcotest.(check int) "dropped + retained = before" before (dropped + retained);
  Alcotest.(check bool) "targeted, not a wipe" true (retained > 0);
  (* replay the same burst on a fresh pipeline through its own Incr *)
  let reference = pipeline () in
  let ref_incr = Pts_core.Incr.create reference.Pipeline.pag in
  let burst = Pts_workload.Editscript.burst (Pts_util.Prng.create 23) reference.Pipeline.pag ~n:5 in
  ignore (Pts_core.Incr.apply ref_incr burst);
  let fresh = Daemon.create ~checkers:(checkers ()) reference in
  List.iter
    (fun (key, _) ->
      let a = Daemon.handle d (query key) in
      let b = Daemon.handle fresh (query key) in
      Alcotest.(check string) (key ^ " post-edit bytes") (member_str "verdicts" b) (member_str "verdicts" a))
    Daemon.clients

(* ------------------------------------------------------------------ *)
(* The line loop                                                       *)
(* ------------------------------------------------------------------ *)

(* Feed [input] (newline-terminated request lines) through
   [Daemon.serve_channel] and return the response lines. *)
let serve_lines d input =
  let infile = Filename.temp_file "serve_in" ".jsonl" in
  let outfile = Filename.temp_file "serve_out" ".jsonl" in
  let oc = open_out infile in
  output_string oc input;
  close_out oc;
  let ic = open_in infile in
  let oc = open_out outfile in
  Daemon.serve_channel d ic oc;
  close_in ic;
  close_out oc;
  let ic = open_in outfile in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove infile;
  Sys.remove outfile;
  List.rev !lines

let parse l = match J.of_string l with Ok v -> v | Error e -> Alcotest.failf "response %S: %s" l e

let test_serve_channel () =
  let d = daemon () in
  let lines =
    serve_lines d
      "{\"op\":\"stats\",\"id\":1}\n\
       {\"op\":\"query\",\"client\":\"safecast\",\"id\":2}\n\
       this is not json\n\
       {\"op\":\"shutdown\",\"id\":3}\n"
  in
  Alcotest.(check int) "one response per request" 4 (List.length lines);
  let r = List.map parse lines in
  Alcotest.(check bool) "stats answered" true (is_ok (List.nth r 0));
  Alcotest.(check string) "id echoed" "1" (member_str "id" (List.nth r 0));
  Alcotest.(check bool) "query answered" true (is_ok (List.nth r 1));
  Alcotest.(check string) "garbage rejected" "parse_error" (error_code (List.nth r 2));
  Alcotest.(check bool) "shutdown acknowledged" true (is_ok (List.nth r 3));
  Alcotest.(check bool) "loop stopped" true (Daemon.shutting_down d)

(* The cost ceiling end to end: a check request over every checker
   reaches far more than one allocation site, so a ceiling of 1 turns it
   away as oversized before any work, and [stats] counts the rejection.
   With the ceiling off the same line is served. *)
let test_serve_channel_oversized () =
  let input = "{\"op\":\"check\",\"id\":1}\n{\"op\":\"stats\",\"id\":2}\n" in
  let capped = daemon ~config:{ Daemon.default_config with Daemon.c_max_cost = 1 } () in
  match List.map parse (serve_lines capped input) with
  | [ check; stats ] -> (
    Alcotest.(check string) "check rejected" "oversized" (error_code check);
    let admission = Option.get (J.member "admission" stats) in
    Alcotest.(check int) "one oversized rejection" 1 (int_field "rejected_oversized" admission);
    Alcotest.(check int) "ceiling reported" 1 (int_field "max_request_cost" admission);
    match List.map parse (serve_lines (daemon ()) input) with
    | [ check; _ ] -> Alcotest.(check bool) "served without a ceiling" true (is_ok check)
    | r -> Alcotest.failf "expected 2 responses, got %d" (List.length r))
  | r -> Alcotest.failf "expected 2 responses, got %d" (List.length r)

(* Verdict objects from the loop must match direct [handle] calls byte
   for byte on a daemon in the same state (the loop adds nothing; the
   envelope's wall_seconds is the one timing-bearing field). *)
let test_serve_channel_bytes_match_handle () =
  let line = "{\"op\":\"query\",\"client\":\"nullderef\",\"engine\":\"dynsum\"}" in
  let via_channel = List.hd (serve_lines (daemon ()) (line ^ "\n")) in
  let via_handle =
    let d = daemon () in
    match Proto.of_line line with
    | Ok rq -> Daemon.handle d rq
    | Error _ -> Alcotest.fail "decode"
  in
  let channel_json = parse via_channel in
  Alcotest.(check string) "loop == handle verdict bytes" (member_str "verdicts" via_handle)
    (member_str "verdicts" channel_json);
  Alcotest.(check string) "same epoch" (member_str "epoch" via_handle) (member_str "epoch" channel_json)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers and escapes" `Quick test_json_numbers_and_escapes;
          Alcotest.test_case "errors carry offsets" `Quick test_json_errors;
        ] );
      ("proto", [ Alcotest.test_case "decode" `Quick test_proto_decode ]);
      ( "admit",
        [
          Alcotest.test_case "fair share" `Quick test_admit_fair_share;
          Alcotest.test_case "capacity and cost" `Quick test_admit_capacity_and_cost;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "bad requests" `Quick test_bad_requests;
          Alcotest.test_case "stats and shutdown" `Quick test_stats_and_shutdown;
          Alcotest.test_case "check" `Quick test_check_request;
        ] );
      ( "tier",
        [
          Alcotest.test_case "eviction bounded, bytes identical" `Slow test_eviction_bounded_and_byte_identical;
          Alcotest.test_case "edit invalidation targeted" `Slow test_edit_invalidation;
        ] );
      ( "loop",
        [
          Alcotest.test_case "serve_channel" `Quick test_serve_channel;
          Alcotest.test_case "oversized check rejected" `Quick test_serve_channel_oversized;
          Alcotest.test_case "loop bytes == handle bytes" `Quick test_serve_channel_bytes_match_handle;
        ] );
    ]
