(* The benchmark's test: runs [ptsto_bench.exe --smoke --trace 1] three
   times and checks what it prints against BENCHMARK.json.

     smoke_test PTSTO_BENCH_EXE BENCHMARK_JSON

   - every workload and metric BENCHMARK.json names appears, with its unit,
     and each workload's last line has exactly the result keys;
   - every correctness check passes and the runs exit 0;
   - [--spans] writes well-formed span lines for every workload;
   - two runs of seed 0 report identical counts (steps, unknowns,
     diagnostics, graph sizes);
   - seed 1 generates different inputs from seed 0;
   - a budget of 50 steps makes queries run out (engine.unknown_frac > 0)
     and the serve workloads' bad request counts as failed, yet the run
     still exits 0. *)

module J = Trace.Json

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark smoke: " ^ msg);
      exit 1)
    fmt

let parse what s = match J.of_string s with Ok j -> j | Error e -> fail "%s is not JSON (%s): %s" what e s
let field k j = match J.member k j with Some v -> v | None -> fail "no %S in %s" k (J.to_string j)
let str k j = match field k j with J.String s -> s | v -> fail "%S is not a string: %s" k (J.to_string v)
let list k j = match field k j with J.List l -> l | v -> fail "%S is not a list: %s" k (J.to_string v)
let keys = function J.Obj kvs -> List.map fst kvs | j -> fail "not an object: %s" (J.to_string j)

let value m j =
  match field "value" (field m (field "metrics" j)) with
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | v -> fail "%s is not a number: %s" m (J.to_string v)

(* Runs the benchmark; returns each workload's record and result line. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "--smoke" :: "--trace" :: "1" :: args)) in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc in
  let out = lines [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "ptsto_bench %s did not exit 0" (String.concat " " args));
  let rec pairs = function
    | r :: result :: rest when String.starts_with ~prefix:"{\"schema\":\"ptsto.benchmark/1\",\"workload\"" r ->
      let r = parse "a record" r in
      (str "workload" r, (r, parse "a result line" result)) :: pairs rest
    | _ :: rest -> pairs rest
    | [] -> []
  in
  pairs out

let () =
  let exe = Sys.argv.(1) in
  let exe = if Filename.is_implicit exe then Filename.concat Filename.current_dir_name exe else exe in
  let spec = parse "BENCHMARK.json" (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) in
  let metrics k = List.map (fun m -> (str "name" m, str "unit" m)) (list k spec) in
  let end_to_end = metrics "end_to_end" and per_layer = metrics "per_layer" in
  let workloads = List.map (str "name") (list "workloads" spec) in
  let spans = "smoke.spans.jsonl" in
  let a = run exe [ "--seed"; "0"; "--spans"; spans ] in
  let span_lines = In_channel.with_open_bin spans In_channel.input_all |> String.split_on_char '\n' in
  Sys.remove spans;
  let span_fields = [ "workload"; "name"; "id"; "parent"; "pass"; "req"; "start_us"; "end_us" ] in
  let spanned =
    List.filter_map
      (fun l ->
        if l = "" then None
        else begin
          let j = parse "a span line" l in
          if keys j <> span_fields then fail "a span line has keys %s" (String.concat "," (keys j));
          Some (str "workload" j)
        end)
      span_lines
  in
  let b = run exe [ "--seed"; "0" ] in
  let c = run exe [ "--seed"; "1"; "--budget"; "50" ] in
  List.iter
    (fun w ->
      let find out = match List.assoc_opt w out with Some x -> x | None -> fail "workload %s did not report" w in
      let (ra, la), (rb, _), (rc, lc) = (find a, find b, find c) in
      if not (List.mem w spanned) then fail "%s: --spans wrote no span" w;
      List.iter
        (fun (r, l) ->
          if field "correct" r <> J.Bool true then fail "%s: a correctness check failed" w;
          if keys l <> [ "correct"; "attempted"; "failed"; "metrics" ] then
            fail "%s: the result line has keys %s" w (String.concat "," (keys l));
          if keys (field "metrics" l) <> List.map fst per_layer then
            fail "%s: the traced result line does not list exactly the per-layer metrics" w;
          List.iter
            (fun (m, u) ->
              if str "unit" (field m (field "metrics" r)) <> u then fail "%s: %s is not in %s" w m u)
            (end_to_end @ per_layer))
        [ (ra, la); (rc, lc) ];
      List.iter
        (fun (m, u) ->
          if u = "count" && value m ra <> value m rb then
            fail "%s: %s differs between two runs of seed 0 (%g, %g)" w m (value m ra) (value m rb))
        per_layer;
      if str "inputs_md5" ra = str "inputs_md5" rc then fail "%s: seed 1 generated the same inputs as seed 0" w;
      if not (value "engine.unknown_frac" rc > 0.0) then fail "%s: a budget of 50 left engine.unknown_frac at 0" w;
      let failed = match field "failed" rc with J.Int n -> n | _ -> 0 in
      if String.starts_with ~prefix:"serve-" w && failed < 1 then
        fail "%s: the bad request was not counted as failed" w)
    workloads;
  Printf.printf "benchmark smoke: %d workloads, %d end-to-end and %d per-layer metrics ok\n"
    (List.length workloads) (List.length end_to_end) (List.length per_layer)
