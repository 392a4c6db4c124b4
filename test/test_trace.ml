(* Tests for the observability layer (Trace) and the engine registry
   (Engine.registry / Engine.create) introduced with the shared kernel. *)

open Pts_core
module Stats = Pts_util.Stats

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------- JSON ------------------------------- *)

let test_json_rendering () =
  let open Trace.Json in
  check Alcotest.string "null" "null" (to_string Null);
  check Alcotest.string "bool" "true" (to_string (Bool true));
  check Alcotest.string "int" "-42" (to_string (Int (-42)));
  check Alcotest.string "float" "1.5" (to_string (Float 1.5));
  check Alcotest.string "nan is null" "null" (to_string (Float Float.nan));
  check Alcotest.string "inf is null" "null" (to_string (Float Float.infinity));
  check Alcotest.string "escaping" "\"a\\\"b\\nc\\\\d\"" (to_string (String "a\"b\nc\\d"));
  check Alcotest.string "control chars" "\"\\u0001\"" (to_string (String "\x01"));
  check Alcotest.string "list" "[1,2]" (to_string (List [ Int 1; Int 2 ]));
  check Alcotest.string "obj" "{\"a\":1,\"b\":[]}"
    (to_string (Obj [ ("a", Int 1); ("b", List []) ]))

(* ------------------------------- sinks ------------------------------ *)

let sample_events =
  [
    Trace.Query_start { engine = "e"; node = 1 };
    Trace.Summary_hit { engine = "e"; node = 2 };
    Trace.Summary_hit { engine = "e"; node = 2 };
    Trace.Summary_miss { engine = "e"; node = 3 };
    Trace.Refine_pass { engine = "e"; node = 1; pass = 2 };
    Trace.Match_edge { engine = "e"; fld = 7 };
    Trace.Budget_exceeded { engine = "e"; node = 1; steps = 99 };
    Trace.Counter { engine = "e"; name = "custom"; delta = 5 };
    Trace.Query_end { engine = "e"; node = 1; resolved = true; targets = 2; steps = 10 };
  ]

let test_counting_sink () =
  let stats = Stats.create () in
  let sink = Trace.counting stats in
  List.iter (Trace.emit sink) sample_events;
  Trace.close sink;
  check Alcotest.int "queries" 1 (Stats.get stats "queries");
  check Alcotest.int "summary_hits" 2 (Stats.get stats "summary_hits");
  check Alcotest.int "summary_misses" 1 (Stats.get stats "summary_misses");
  check Alcotest.int "passes" 1 (Stats.get stats "passes");
  check Alcotest.int "match_edges" 1 (Stats.get stats "match_edges");
  check Alcotest.int "exceeded" 1 (Stats.get stats "exceeded");
  check Alcotest.int "custom counter" 5 (Stats.get stats "custom");
  (* Query_end aggregates into nothing *)
  check Alcotest.int "no query_end counter" 0 (Stats.get stats "query_end")

(* The sink caches each counter cell after its first event: repeated
   events keep adding to the same cell, and a counter no event reached is
   never created. *)
let test_counting_cells () =
  let stats = Stats.create () in
  let sink = Trace.counting stats in
  List.iter (Trace.emit sink) sample_events;
  List.iter (Trace.emit sink) sample_events;
  check Alcotest.int "cached cell keeps counting" 4 (Stats.get stats "summary_hits");
  check Alcotest.int "named counter cached too" 10 (Stats.get stats "custom");
  check
    Alcotest.(list string)
    "only counters that saw an event exist"
    [ "custom"; "exceeded"; "match_edges"; "passes"; "queries"; "summary_hits"; "summary_misses" ]
    (List.map fst (Stats.to_list stats))

let test_tee () =
  let s1 = Stats.create () in
  let s2 = Stats.create () in
  let sink = Trace.tee (Trace.counting s1) (Trace.counting s2) in
  List.iter (Trace.emit sink) sample_events;
  Trace.close sink;
  check Alcotest.int "left sees all" 2 (Stats.get s1 "summary_hits");
  check Alcotest.int "right sees all" 2 (Stats.get s2 "summary_hits")

let test_jsonl_file_sink () =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Trace.to_file path in
      List.iter (Trace.emit sink) sample_events;
      Trace.close sink;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check Alcotest.int "one line per event" (List.length sample_events) (List.length lines);
      List.iter
        (fun l ->
          check Alcotest.bool "looks like a json object" true
            (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines;
      check Alcotest.bool "event kind present" true (contains (List.hd lines) "query_start"))

(* the sink used by engines in production must cost nothing and accept
   everything *)
let test_null_sink () =
  List.iter (Trace.emit Trace.null) sample_events;
  Trace.close Trace.null

(* ----------------------------- registry ----------------------------- *)

let figure2 () = Pts_workload.Figure2.pipeline ()

let test_registry_names () =
  check
    Alcotest.(list string)
    "paper presentation order"
    [ "norefine"; "refinepts"; "dynsum"; "stasum"; "supa" ]
    (Engine.names ())

let test_registry_find () =
  (match Engine.find "dynsum" with
  | Some s ->
    check Alcotest.string "spec name" "dynsum" s.Engine.spec_name;
    check Alcotest.bool "documented" true (String.length s.Engine.spec_doc > 0)
  | None -> Alcotest.fail "dynsum not registered");
  check Alcotest.bool "unknown name" true (Engine.find "spark" = None)

let test_registry_create_unknown_raises () =
  let pl = figure2 () in
  match Engine.create "spark" pl.Pts_clients.Pipeline.pag with
  | exception Invalid_argument msg ->
    check Alcotest.bool "message lists known engines" true (contains msg "dynsum")
  | _ -> Alcotest.fail "unknown engine accepted"

let test_registry_engines_agree () =
  (* every registered engine, built through the registry, resolves Figure 2's
     s1 to the same sites *)
  let pl = figure2 () in
  let pag = pl.Pts_clients.Pipeline.pag in
  let s1 = Pts_workload.Figure2.s1 pl in
  let outcomes =
    List.map
      (fun name ->
        let e = Engine.create name pag in
        check Alcotest.string "engine is named after its spec" name e.Engine.name;
        (name, e.Engine.points_to s1))
      (Engine.names ())
  in
  match outcomes with
  | [] -> Alcotest.fail "empty registry"
  | (_, first) :: rest ->
    check Alcotest.bool "first engine resolves" true
      (match first with Query.Resolved _ -> true | _ -> false);
    List.iter
      (fun (name, o) ->
        check Alcotest.bool (name ^ " agrees with norefine") true (Query.equal_sites first o))
      rest

let test_registry_engines_trace () =
  (* a trace sink passed through the registry observes every engine *)
  let pl = figure2 () in
  let pag = pl.Pts_clients.Pipeline.pag in
  let s1 = Pts_workload.Figure2.s1 pl in
  List.iter
    (fun name ->
      let stats = Stats.create () in
      let e = Engine.create ~trace:(Trace.counting stats) name pag in
      ignore (e.Engine.points_to s1);
      check Alcotest.bool (name ^ " emits query events") true (Stats.get stats "queries" > 0))
    (Engine.names ())

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [ Alcotest.test_case "rendering and escaping" `Quick test_json_rendering ] );
      ( "sinks",
        [
          Alcotest.test_case "counting" `Quick test_counting_sink;
          Alcotest.test_case "counting cells are lazy and cached" `Quick test_counting_cells;
          Alcotest.test_case "tee" `Quick test_tee;
          Alcotest.test_case "jsonl file" `Quick test_jsonl_file_sink;
          Alcotest.test_case "null" `Quick test_null_sink;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "unknown raises" `Quick test_registry_create_unknown_raises;
          Alcotest.test_case "engines agree" `Quick test_registry_engines_agree;
          Alcotest.test_case "engines trace" `Quick test_registry_engines_trace;
        ] );
    ]
