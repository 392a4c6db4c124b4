(* The CFL kernel's determinism pins and its packed dedup keys.

   Golden pins.

   Every engine must visit the same states in the same order and charge
   the same budget steps whatever the kernel's data structures look like:
   the paper's results are step counts. This suite runs each of the five
   engines over the SafeCast, NullDeref and FactoryM batches on jack and
   on an edited jack (an overlay holding both inserted and deleted edges),
   and pins per batch:

   - the budget steps the batch charged;
   - the tally and an MD5 of the per-query verdict string;
   - the summary count and the summary hit/miss counters.

   A change to visit order, step charging or summary reuse fails here by
   name, not only as a drift in the benchmark. On a mismatch the actual
   row is printed in source form.

   Keys. The walks' visited sets key states on one packed int; distinct
   (node, state, stack id) triples at the edges of the chosen bit widths
   must stay distinct, and a component that does not fit must raise. *)

module Suite = Pts_workload.Suite
module Editscript = Pts_workload.Editscript
module Pipeline = Pts_clients.Pipeline
module Client = Pts_clients.Client
module Prng = Pts_util.Prng
module Stats = Pts_util.Stats

type row = {
  graph : string;
  engine : string;
  client : string;
  steps : int;
  tally : string; (* proved/refuted/unknown *)
  verdicts_md5 : string; (* one letter per query, in query order *)
  summaries : int;
  hits : int;
  misses : int;
}

let show r =
  Printf.sprintf
    "{ graph = %S; engine = %S; client = %S; steps = %d; tally = %S; verdicts_md5 = %S; \
     summaries = %d; hits = %d; misses = %d };"
    r.graph r.engine r.client r.steps r.tally r.verdicts_md5 r.summaries r.hits r.misses

let clients =
  [
    ("safecast", Pts_clients.Safecast.queries);
    ("nullderef", Pts_clients.Nullderef.queries);
    ("factorym", Pts_clients.Factorym.queries);
  ]

let letter = function Client.Proved -> 'P' | Client.Refuted -> 'R' | Client.Unknown -> 'U'

(* One engine per graph serves the three batches in order, as one
   client run would, so STASUM's offline table is built once; [steps] is
   the batch's own share, the summary figures are cumulative. *)
let observe graph pl e (client, queries_of) =
  let steps_before = Budget.total_steps e.Engine.budget in
  let queries = queries_of pl in
  let verdicts =
    String.of_seq
      (List.to_seq
         (List.map
            (fun q ->
              let outcome = e.Engine.points_to ~satisfy:q.Client.q_pred q.Client.q_node in
              letter (Client.verdict_of q.Client.q_pred outcome))
            queries))
  in
  let count c = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 verdicts in
  {
    graph;
    engine = e.Engine.name;
    client;
    steps = Budget.total_steps e.Engine.budget - steps_before;
    tally = Printf.sprintf "%d/%d/%d" (count 'P') (count 'R') (count 'U');
    verdicts_md5 = Digest.to_hex (Digest.string verdicts);
    summaries = e.Engine.summary_count ();
    hits = Stats.get e.Engine.stats "summary_hits";
    misses = Stats.get e.Engine.stats "summary_misses";
  }

(* Two seeded bursts over a private jack pipeline; the test asserts the
   overlay ends up with both inserts and tombstones. *)
let edited_jack () =
  let pl = Pipeline.of_source (Suite.source "jack") in
  let rng = Prng.create 42 in
  for _ = 1 to 2 do
    ignore (Pag.apply_edits pl.Pipeline.pag (Editscript.burst rng pl.Pipeline.pag ~n:8))
  done;
  pl

let expected =
  [
    { graph = "jack"; engine = "norefine"; client = "safecast"; steps = 41872; tally = "49/1/0"; verdicts_md5 = "ff3aec1449e508a3844068a51d97695d"; summaries = 0; hits = 200; misses = 2090 };
    { graph = "jack"; engine = "norefine"; client = "nullderef"; steps = 94269; tally = "538/26/0"; verdicts_md5 = "c8895cfa2661003f72698f8a6b47aa10"; summaries = 0; hits = 1513; misses = 11302 };
    { graph = "jack"; engine = "norefine"; client = "factorym"; steps = 154; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 0; hits = 1521; misses = 11325 };
    { graph = "jack"; engine = "refinepts"; client = "safecast"; steps = 342922; tally = "49/1/0"; verdicts_md5 = "ff3aec1449e508a3844068a51d97695d"; summaries = 0; hits = 3930; misses = 11635 };
    { graph = "jack"; engine = "refinepts"; client = "nullderef"; steps = 467107; tally = "538/26/0"; verdicts_md5 = "c8895cfa2661003f72698f8a6b47aa10"; summaries = 0; hits = 9890; misses = 31090 };
    { graph = "jack"; engine = "refinepts"; client = "factorym"; steps = 154; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 0; hits = 9898; misses = 31113 };
    { graph = "jack"; engine = "dynsum"; client = "safecast"; steps = 14202; tally = "49/1/0"; verdicts_md5 = "ff3aec1449e508a3844068a51d97695d"; summaries = 655; hits = 1630; misses = 655 };
    { graph = "jack"; engine = "dynsum"; client = "nullderef"; steps = 33598; tally = "538/26/0"; verdicts_md5 = "c8895cfa2661003f72698f8a6b47aa10"; summaries = 2163; hits = 9570; misses = 2163 };
    { graph = "jack"; engine = "dynsum"; client = "factorym"; steps = 106; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 2163; hits = 9598; misses = 2163 };
    { graph = "jack"; engine = "stasum"; client = "safecast"; steps = 10153; tally = "49/1/0"; verdicts_md5 = "ff3aec1449e508a3844068a51d97695d"; summaries = 300000; hits = 2285; misses = 0 };
    { graph = "jack"; engine = "stasum"; client = "nullderef"; steps = 30211; tally = "538/26/0"; verdicts_md5 = "c8895cfa2661003f72698f8a6b47aa10"; summaries = 300000; hits = 11733; misses = 0 };
    { graph = "jack"; engine = "stasum"; client = "factorym"; steps = 106; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 300000; hits = 11761; misses = 0 };
    { graph = "jack"; engine = "supa"; client = "safecast"; steps = 41872; tally = "49/1/0"; verdicts_md5 = "ff3aec1449e508a3844068a51d97695d"; summaries = 0; hits = 200; misses = 2090 };
    { graph = "jack"; engine = "supa"; client = "nullderef"; steps = 94269; tally = "538/26/0"; verdicts_md5 = "c8895cfa2661003f72698f8a6b47aa10"; summaries = 0; hits = 1513; misses = 11302 };
    { graph = "jack"; engine = "supa"; client = "factorym"; steps = 154; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 0; hits = 1521; misses = 11325 };
    { graph = "jack+edits"; engine = "norefine"; client = "safecast"; steps = 37763; tally = "46/4/0"; verdicts_md5 = "e258e9f35534e9cd3c2ebf7566702817"; summaries = 0; hits = 204; misses = 1995 };
    { graph = "jack+edits"; engine = "norefine"; client = "nullderef"; steps = 87044; tally = "543/21/0"; verdicts_md5 = "5960723508edc331889aa9f286a94171"; summaries = 0; hits = 1522; misses = 10740 };
    { graph = "jack+edits"; engine = "norefine"; client = "factorym"; steps = 154; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 0; hits = 1530; misses = 10763 };
    { graph = "jack+edits"; engine = "refinepts"; client = "safecast"; steps = 844560; tally = "38/4/8"; verdicts_md5 = "d57d6aea474b0a53f6d96f895a64e03a"; summaries = 0; hits = 3468; misses = 16730 };
    { graph = "jack+edits"; engine = "refinepts"; client = "nullderef"; steps = 1393513; tally = "531/19/14"; verdicts_md5 = "954d5aa456330e6aa67e642fb9734917"; summaries = 0; hits = 8903; misses = 45411 };
    { graph = "jack+edits"; engine = "refinepts"; client = "factorym"; steps = 154; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 0; hits = 8911; misses = 45434 };
    { graph = "jack+edits"; engine = "dynsum"; client = "safecast"; steps = 13583; tally = "46/4/0"; verdicts_md5 = "e258e9f35534e9cd3c2ebf7566702817"; summaries = 628; hits = 1563; misses = 628 };
    { graph = "jack+edits"; engine = "dynsum"; client = "nullderef"; steps = 32301; tally = "543/21/0"; verdicts_md5 = "5960723508edc331889aa9f286a94171"; summaries = 2042; hits = 9144; misses = 2042 };
    { graph = "jack+edits"; engine = "dynsum"; client = "factorym"; steps = 106; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 2042; hits = 9172; misses = 2042 };
    { graph = "jack+edits"; engine = "stasum"; client = "safecast"; steps = 9760; tally = "46/4/0"; verdicts_md5 = "e258e9f35534e9cd3c2ebf7566702817"; summaries = 300000; hits = 2191; misses = 0 };
    { graph = "jack+edits"; engine = "stasum"; client = "nullderef"; steps = 29012; tally = "543/21/0"; verdicts_md5 = "5960723508edc331889aa9f286a94171"; summaries = 300000; hits = 11186; misses = 0 };
    { graph = "jack+edits"; engine = "stasum"; client = "factorym"; steps = 106; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 300000; hits = 11214; misses = 0 };
    { graph = "jack+edits"; engine = "supa"; client = "safecast"; steps = 37763; tally = "46/4/0"; verdicts_md5 = "e258e9f35534e9cd3c2ebf7566702817"; summaries = 0; hits = 204; misses = 1995 };
    { graph = "jack+edits"; engine = "supa"; client = "nullderef"; steps = 87044; tally = "543/21/0"; verdicts_md5 = "5960723508edc331889aa9f286a94171"; summaries = 0; hits = 1522; misses = 10740 };
    { graph = "jack+edits"; engine = "supa"; client = "factorym"; steps = 154; tally = "15/5/0"; verdicts_md5 = "fa7d84c2292e9984b31dd251bd71047d"; summaries = 0; hits = 1530; misses = 10763 };
  ]

let engines = [ "norefine"; "refinepts"; "dynsum"; "stasum"; "supa" ]

let check = Alcotest.check

let check_graph graph pl =
  let drifted =
    List.concat_map
      (fun engine ->
        let e = Engine.create engine pl.Pipeline.pag in
        List.filter_map
          (fun ((client, _) as c) ->
            let got = observe graph pl e c in
            let want =
              List.find_opt
                (fun r -> r.graph = graph && r.engine = engine && r.client = client)
                expected
            in
            if want = Some got then None else Some (show got))
          clients)
      engines
  in
  if drifted <> [] then
    Alcotest.failf "%d golden rows drifted; actual:\n%s" (List.length drifted)
      (String.concat "\n" drifted)

(* The jack SafeCast tier exactly as [ptsto client --bench jack -c
   safecast --cache F] saves it (default budget, one domain). The file
   spells out every summary's footprint as its node list, so a change to
   what a footprint holds, or to how the tier is written, fails here. *)
let tier_md5 = "dbe2ac9a5577d838981adfb99cfaf26d"

let test_tier_bytes () =
  let pl = Suite.pipeline "jack" in
  let pag = pl.Pipeline.pag in
  let tier = Dynsum.base_create () in
  let queries =
    List.map
      (fun q -> Parsolve.query ~satisfy:q.Client.q_pred q.Client.q_node)
      (Pts_clients.Safecast.queries pl)
  in
  ignore (Parsolve.run ~base:tier ~engine:"dynsum" pag (Array.of_list queries));
  let path = Filename.temp_file "ptsto_tier" ".bin" in
  let bytes =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Dynsum.save_base tier pag path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  check Alcotest.string "saved tier MD5" tier_md5 (Digest.to_hex (Digest.string bytes))

(* Allocation per step. Minor words are deterministic for a build, so
   this pins the summary path's cost where wall time cannot: a fresh
   DYNSUM engine on this domain answers jack's three batches, and the
   minor words it allocates, divided by the steps it charges, must stay
   under [max_words_per_step]. A first, unmeasured engine runs the same
   batches so the domain's hash-cons store already holds every stack,
   whichever tests ran before. *)
let max_words_per_step = 11.0

let dynsum_words_per_step () =
  let pl = Suite.pipeline "jack" in
  let batches = List.map (fun (_, queries_of) -> queries_of pl) clients in
  let answer_all e =
    List.iter
      (List.iter (fun q -> ignore (e.Engine.points_to ~satisfy:q.Client.q_pred q.Client.q_node)))
      batches
  in
  answer_all (Engine.create "dynsum" pl.Pipeline.pag);
  let e = Engine.create "dynsum" pl.Pipeline.pag in
  let w0 = Gc.minor_words () in
  answer_all e;
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int (Budget.total_steps e.Engine.budget)

let test_dynsum_allocation () =
  let wps = dynsum_words_per_step () in
  Printf.printf "dynsum minor words per step on jack: %.2f\n" wps;
  if wps > max_words_per_step then
    Alcotest.failf "dynsum allocates %.2f minor words per step on jack (bound %.1f)" wps
      max_words_per_step

let test_overlay_has_both () =
  let added, deleted = Pag.delta_counts (edited_jack ()).Pipeline.pag in
  Alcotest.(check bool) "overlay inserts" true (added > 0);
  Alcotest.(check bool) "overlay tombstones" true (deleted > 0)

(* ------------------------------ keys -------------------------------- *)

module Key = Kernel.State_key

(* the smallest and largest values of a [bits]-wide field *)
let edge_values bits =
  List.sort_uniq Int.compare
    (List.filter (fun x -> x >= 0 && x < 1 lsl bits) [ 0; 1; 2; (1 lsl bits) - 2; (1 lsl bits) - 1 ])

let test_state_key_injective () =
  List.iter
    (fun node_count ->
      let l = Key.layout ~node_count in
      check Alcotest.bool "nodes fit" true (node_count <= 1 lsl Key.node_bits l);
      check Alcotest.int "every bit of a non-negative int is used" (Sys.int_size - 1)
        (Key.node_bits l + 1 + Key.id_bits l);
      let nodes = List.filter (fun n -> n < node_count) (edge_values (Key.node_bits l)) in
      let ids = edge_values (Key.id_bits l) in
      let keys =
        List.concat_map
          (fun node ->
            List.concat_map
              (fun state -> List.map (fun id -> Key.pack l ~node ~state ~id) ids)
              [ Kernel.S1; Kernel.S2 ])
          nodes
      in
      check Alcotest.bool "keys are non-negative" true (List.for_all (fun k -> k >= 0) keys);
      check Alcotest.int
        (Printf.sprintf "no collisions at node_count %d" node_count)
        (List.length keys)
        (List.length (List.sort_uniq Int.compare keys)))
    [ 1; 2; 3; 1000; 1024; 1025; 31861; 1 lsl 20 ]

let test_state_key_rejects () =
  let l = Key.layout ~node_count:1000 in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "id past its bits" (fun () ->
      Key.pack l ~node:0 ~state:Kernel.S1 ~id:(1 lsl Key.id_bits l));
  raises "negative id" (fun () -> Key.pack l ~node:0 ~state:Kernel.S1 ~id:(-1));
  raises "node past its bits" (fun () ->
      Key.pack l ~node:(1 lsl Key.node_bits l) ~state:Kernel.S2 ~id:0);
  raises "negative node" (fun () -> Key.pack l ~node:(-1) ~state:Kernel.S2 ~id:0)

(* Pairset against a Hashtbl model, through growth and reuse. *)
let test_pairset_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"pairset agrees with a set model" ~count:200
       QCheck.(list (pair (int_bound 50) (int_range (-3) 3)))
       (fun pairs ->
         let set = Pts_util.Pairset.create 1 in
         let model = Hashtbl.create 16 in
         let round () =
           List.for_all
             (fun (a, b) ->
               let fresh = not (Hashtbl.mem model (a, b)) in
               Hashtbl.replace model (a, b) ();
               Pts_util.Pairset.add set a b = fresh && Pts_util.Pairset.mem set a b)
             pairs
           && Pts_util.Pairset.length set = Hashtbl.length model
           &&
           let order = ref [] in
           Pts_util.Pairset.iter (fun a b -> order := (a, b) :: !order) set;
           let first_seen =
             List.fold_left (fun acc p -> if List.mem p acc then acc else p :: acc) [] pairs
           in
           !order = first_seen
         in
         let first = round () in
         Pts_util.Pairset.clear set;
         Hashtbl.reset model;
         first && Pts_util.Pairset.length set = 0 && round ()))

let () =
  Alcotest.run "kernel"
    [
      ( "golden",
        [
          Alcotest.test_case "edited jack has inserts and deletes" `Quick test_overlay_has_both;
          Alcotest.test_case "jack" `Quick (fun () -> check_graph "jack" (Suite.pipeline "jack"));
          Alcotest.test_case "edited jack" `Quick (fun () ->
              check_graph "jack+edits" (edited_jack ()));
          Alcotest.test_case "jack safecast tier bytes" `Quick test_tier_bytes;
          Alcotest.test_case "dynsum minor words per step" `Quick test_dynsum_allocation;
        ] );
      ( "keys",
        [
          Alcotest.test_case "packed state keys never collide" `Quick test_state_key_injective;
          Alcotest.test_case "out-of-range components raise" `Quick test_state_key_rejects;
          test_pairset_model;
        ] );
    ]
