(* Unit and property tests for the utility substrate. *)

module Prng = Pts_util.Prng
module Hstack = Pts_util.Hstack
module Bitset = Pts_util.Bitset
module Digraph = Pts_util.Digraph
module Table = Pts_util.Table
module Stats = Pts_util.Stats

let check = Alcotest.check

(* ------------------------------- Prng ------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let d = ref false in
  for _ = 1 to 10 do
    if Prng.next64 a <> Prng.next64 b then d := true
  done;
  check Alcotest.bool "different seeds differ" true !d

let test_prng_bounds () =
  let r = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.int r 17 in
    check Alcotest.bool "in range" true (x >= 0 && x < 17);
    let y = Prng.int_in r 5 9 in
    check Alcotest.bool "int_in range" true (y >= 5 && y <= 9)
  done

let test_prng_weighted () =
  let r = Prng.create 4 in
  for _ = 1 to 200 do
    let x = Prng.weighted r [ (1, `A); (0, `B); (3, `C) ] in
    check Alcotest.bool "never zero-weight" true (x <> `B)
  done;
  Alcotest.check_raises "empty weights" (Invalid_argument "Prng.weighted: no positive weight")
    (fun () -> ignore (Prng.weighted r [ (0, `A) ]))

let test_prng_split_independent () =
  let a = Prng.create 5 in
  let b = Prng.split a in
  check Alcotest.bool "split differs from parent" true (Prng.next64 a <> Prng.next64 b)

let test_prng_shuffle_permutes () =
  let r = Prng.create 6 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_sample () =
  let r = Prng.create 8 in
  let s = Prng.sample r 3 [ 1; 2; 3; 4; 5 ] in
  check Alcotest.int "sample size" 3 (List.length s);
  check Alcotest.int "distinct" 3 (List.length (List.sort_uniq compare s));
  check Alcotest.int "oversample clamps" 2 (List.length (Prng.sample r 10 [ 1; 2 ]))

(* ------------------------------ Hstack ------------------------------ *)

let test_hstack_basics () =
  let s = Hstack.push (Hstack.push Hstack.empty 1) 2 in
  check Alcotest.int "depth" 2 (Hstack.depth s);
  check (Alcotest.option Alcotest.int) "peek" (Some 2) (Hstack.peek s);
  check (Alcotest.list Alcotest.int) "to_list top first" [ 2; 1 ] (Hstack.to_list s);
  check Alcotest.bool "pop" true (Hstack.equal (Hstack.pop_exn s) (Hstack.push Hstack.empty 1));
  check Alcotest.bool "empty is_empty" true (Hstack.is_empty Hstack.empty);
  Alcotest.check_raises "pop empty" (Invalid_argument "Hstack.pop_exn: empty stack") (fun () ->
      ignore (Hstack.pop_exn Hstack.empty))

let test_hstack_hashconsing () =
  let a = Hstack.of_list [ 3; 2; 1 ] in
  let b = Hstack.push (Hstack.push (Hstack.push Hstack.empty 1) 2) 3 in
  check Alcotest.bool "same value is physically equal" true (a == b);
  check Alcotest.int "same id" (Hstack.id a) (Hstack.id b);
  let c = Hstack.of_list [ 3; 2 ] in
  check Alcotest.bool "distinct stacks differ" false (Hstack.equal a c)

let test_hstack_roundtrip =
  QCheck.Test.make ~name:"hstack of_list/to_list roundtrip" ~count:200
    QCheck.(list small_nat)
    (fun l -> Hstack.to_list (Hstack.of_list l) = l)

let test_hstack_push_pop =
  QCheck.Test.make ~name:"hstack push then pop is identity" ~count:200
    QCheck.(pair (list small_nat) small_nat)
    (fun (l, x) ->
      let s = Hstack.of_list l in
      match Hstack.pop (Hstack.push s x) with Some s' -> Hstack.equal s s' | None -> false)

(* ------------------------------ Bitset ------------------------------ *)

let test_bitset_basics () =
  let s = Bitset.create () in
  check Alcotest.bool "add fresh" true (Bitset.add s 5);
  check Alcotest.bool "add dup" false (Bitset.add s 5);
  ignore (Bitset.add s 100);
  ignore (Bitset.add s 1000);
  check Alcotest.bool "mem" true (Bitset.mem s 100);
  check Alcotest.bool "not mem" false (Bitset.mem s 99);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal s);
  check (Alcotest.list Alcotest.int) "to_list ascending" [ 5; 100; 1000 ] (Bitset.to_list s)

let test_bitset_union () =
  let a = Bitset.create () and b = Bitset.create () in
  ignore (Bitset.add a 1);
  ignore (Bitset.add b 2);
  ignore (Bitset.add b 300);
  check Alcotest.bool "union changes" true (Bitset.union_into ~dst:a b);
  check Alcotest.bool "union again no-op" false (Bitset.union_into ~dst:a b);
  check (Alcotest.list Alcotest.int) "union contents" [ 1; 2; 300 ] (Bitset.to_list a);
  check Alcotest.bool "subset" true (Bitset.subset b a);
  check Alcotest.bool "not subset" false (Bitset.subset a b)

let test_bitset_delta () =
  (* diff_union_into: dst grows by src, delta records only the fresh bits *)
  let dst = Bitset.create () and delta = Bitset.create () and src = Bitset.create () in
  ignore (Bitset.add dst 1);
  ignore (Bitset.add src 1);
  ignore (Bitset.add src 70);
  ignore (Bitset.add src 200);
  check Alcotest.bool "changed" true (Bitset.diff_union_into ~dst ~delta src);
  check (Alcotest.list Alcotest.int) "dst grew" [ 1; 70; 200 ] (Bitset.to_list dst);
  check (Alcotest.list Alcotest.int) "delta = fresh only" [ 70; 200 ] (Bitset.to_list delta);
  check Alcotest.bool "idempotent" false (Bitset.diff_union_into ~dst ~delta src);
  Bitset.clear delta;
  check Alcotest.int "clear empties" 0 (Bitset.cardinal delta);
  check Alcotest.bool "clear keeps capacity usable" false (Bitset.mem delta 200)

let test_bitset_inter_empty () =
  let a = Bitset.create () and b = Bitset.create () in
  check Alcotest.bool "both empty" true (Bitset.inter_empty a b);
  ignore (Bitset.add a 3);
  ignore (Bitset.add b 400);
  check Alcotest.bool "disjoint" true (Bitset.inter_empty a b);
  check Alcotest.bool "symmetric" true (Bitset.inter_empty b a);
  ignore (Bitset.add b 3);
  check Alcotest.bool "overlap" false (Bitset.inter_empty a b)

let test_bitset_choose_singleton () =
  let s = Bitset.create () in
  check (Alcotest.option Alcotest.int) "empty" None (Bitset.choose_singleton s);
  ignore (Bitset.add s 130);
  check (Alcotest.option Alcotest.int) "singleton" (Some 130) (Bitset.choose_singleton s);
  ignore (Bitset.add s 2);
  check (Alcotest.option Alcotest.int) "two bits" None (Bitset.choose_singleton s);
  (* two bits in the same word *)
  let t = Bitset.create () in
  ignore (Bitset.add t 4);
  ignore (Bitset.add t 5);
  check (Alcotest.option Alcotest.int) "two bits same word" None (Bitset.choose_singleton t)

let test_bitset_delta_model =
  QCheck.Test.make ~name:"diff_union_into agrees with a set model" ~count:100
    QCheck.(pair (list (int_bound 300)) (list (int_bound 300)))
    (fun (xs, ys) ->
      let dst = Bitset.create () and delta = Bitset.create () and src = Bitset.create () in
      List.iter (fun x -> ignore (Bitset.add dst x)) xs;
      List.iter (fun y -> ignore (Bitset.add src y)) ys;
      let changed = Bitset.diff_union_into ~dst ~delta src in
      let xs' = List.sort_uniq compare xs and ys' = List.sort_uniq compare ys in
      let fresh = List.filter (fun y -> not (List.mem y xs')) ys' in
      Bitset.to_list dst = List.sort_uniq compare (xs' @ ys')
      && Bitset.to_list delta = fresh
      && changed = (fresh <> []))

let test_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with a set model" ~count:100
    QCheck.(list (int_bound 500))
    (fun xs ->
      let s = Bitset.create () in
      List.iter (fun x -> ignore (Bitset.add s x)) xs;
      Bitset.to_list s = List.sort_uniq compare xs)

(* Sources built with a large capacity carry long runs of zero words past
   their highest element. Unions and iteration must agree with the model,
   and the destination must grow only as far as the elements go, not to
   the source's capacity. *)
let tailed xs =
  let s = Bitset.create ~capacity:4096 () in
  List.iter (fun x -> ignore (Bitset.add s x)) xs;
  s

let test_lowest_bit () =
  for i = 0 to Sys.int_size - 1 do
    check Alcotest.int "single bit" i (Bitset.lowest_bit (1 lsl i));
    check Alcotest.int "every bit from i up" i (Bitset.lowest_bit (-1 lsl i));
    check Alcotest.int "bit i and the top bit" i (Bitset.lowest_bit ((1 lsl i) lor min_int))
  done

let test_bitset_tail_model =
  QCheck.Test.make ~name:"unions over zero-tailed sources agree with a set model" ~count:100
    QCheck.(pair (list (int_bound 300)) (list (int_bound 300)))
    (fun (xs, ys) ->
      let a = tailed xs and b = tailed ys in
      let dst = Bitset.create ~capacity:1 () and delta = Bitset.create ~capacity:1 () in
      ignore (Bitset.union_into ~dst a);
      ignore (Bitset.diff_union_into ~dst ~delta b);
      let xs' = List.sort_uniq compare xs in
      let model = List.sort_uniq compare (xs @ ys) in
      let fresh = List.filter (fun y -> not (List.mem y xs')) (List.sort_uniq compare ys) in
      let seen = ref [] in
      Bitset.iter dst (fun x -> seen := x :: !seen);
      (* 300 fits in 5 words: record + array stay far below the 66 words
         a capacity-sized copy would take *)
      let small s = Obj.reachable_words (Obj.repr s) <= 16 in
      List.rev !seen = model
      && Bitset.to_list delta = fresh
      && Bitset.equal dst (tailed model)
      && Bitset.equal (tailed model) dst
      && Bitset.subset a dst && Bitset.subset b dst
      && Bitset.subset dst (tailed model)
      && Bitset.subset dst a = List.for_all (fun y -> List.mem y xs') ys
      && small dst && small delta)

(* ------------------------------ Digraph ----------------------------- *)

let test_scc_line () =
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  let comp, n = Digraph.scc g in
  check Alcotest.int "3 components" 3 n;
  check Alcotest.bool "distinct" true (comp.(0) <> comp.(1) && comp.(1) <> comp.(2));
  (* reverse topological numbering: successors have smaller indices *)
  check Alcotest.bool "topo order" true (comp.(0) > comp.(1) && comp.(1) > comp.(2))

let test_scc_cycle () =
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 0;
  Digraph.add_edge g 2 3;
  let comp, n = Digraph.scc g in
  check Alcotest.int "2 components" 2 n;
  check Alcotest.bool "cycle collapsed" true (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  check Alcotest.bool "tail separate" true (comp.(3) <> comp.(0))

let test_scc_self_loop () =
  let g = Digraph.create () in
  Digraph.add_edge g 0 0;
  Digraph.add_edge g 0 1;
  let comp, n = Digraph.scc g in
  check Alcotest.int "2 components" 2 n;
  check Alcotest.bool "self loop own comp" true (comp.(0) <> comp.(1))

let test_reachable () =
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 2 3;
  let r = Digraph.reachable_from g [ 0 ] in
  check Alcotest.bool "reaches 1" true r.(1);
  check Alcotest.bool "misses 3" false r.(3)

(* SCC property check against a brute-force model: u and v share a
   component iff each reaches the other. *)
let test_scc_model =
  QCheck.Test.make ~name:"scc agrees with mutual reachability" ~count:60
    QCheck.(pair (int_range 2 9) (small_list (pair (int_bound 8) (int_bound 8))))
    (fun (n, edges) ->
      let g = Digraph.create () in
      Digraph.ensure_node g (n - 1);
      List.iter (fun (u, v) -> if u < n && v < n then Digraph.add_edge g u v) edges;
      let comp, _ = Digraph.scc g in
      let ok = ref true in
      for u = 0 to n - 1 do
        let ru = Digraph.reachable_from g [ u ] in
        for v = 0 to n - 1 do
          let rv = Digraph.reachable_from g [ v ] in
          let mutual = ru.(v) && rv.(u) in
          if (comp.(u) = comp.(v)) <> mutual then ok := false
        done
      done;
      !ok)

let test_digraph_dedup () =
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  check Alcotest.int "edges deduped" 1 (List.length (Digraph.succ g 0))

(* ------------------------------- Table ------------------------------ *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" [ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  check Alcotest.bool "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  check Alcotest.bool "mentions alpha" true (contains ~needle:"alpha" s);
  check Alcotest.bool "aligned right" true (contains ~needle:" 1 " s);
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_formats () =
  check Alcotest.string "pct" "87.3%" (Table.fmt_pct 0.873);
  check Alcotest.string "k" "16.6" (Table.fmt_k 16600);
  check Alcotest.string "speedup" "1.95x" (Table.fmt_speedup 1.95);
  check Alcotest.string "float" "2.28" (Table.fmt_float 2.284)

(* ------------------------------- Stats ------------------------------ *)

let test_stats () =
  let s = Stats.create () in
  Stats.bump s "a";
  Stats.bump s "a";
  Stats.add s "b" 5;
  check Alcotest.int "bump" 2 (Stats.get s "a");
  check Alcotest.int "add" 5 (Stats.get s "b");
  check Alcotest.int "missing" 0 (Stats.get s "zzz");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "to_list sorted"
    [ ("a", 2); ("b", 5) ]
    (Stats.to_list s)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "weighted" `Quick test_prng_weighted;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "sample" `Quick test_prng_sample;
        ] );
      ( "hstack",
        [
          Alcotest.test_case "basics" `Quick test_hstack_basics;
          Alcotest.test_case "hashconsing" `Quick test_hstack_hashconsing;
          QCheck_alcotest.to_alcotest test_hstack_roundtrip;
          QCheck_alcotest.to_alcotest test_hstack_push_pop;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "union" `Quick test_bitset_union;
          Alcotest.test_case "delta union" `Quick test_bitset_delta;
          Alcotest.test_case "inter_empty" `Quick test_bitset_inter_empty;
          Alcotest.test_case "choose_singleton" `Quick test_bitset_choose_singleton;
          QCheck_alcotest.to_alcotest test_bitset_model;
          QCheck_alcotest.to_alcotest test_bitset_delta_model;
          QCheck_alcotest.to_alcotest test_bitset_tail_model;
        ] );
      (* Alcotest pads case names to the longest group label; this 8-wide
         label keeps the truncation of long printed names unchanged. *)
      ("bit scan", [ Alcotest.test_case "lowest_bit" `Quick test_lowest_bit ]);
      ( "digraph",
        [
          Alcotest.test_case "scc line" `Quick test_scc_line;
          Alcotest.test_case "scc cycle" `Quick test_scc_cycle;
          Alcotest.test_case "scc self loop" `Quick test_scc_self_loop;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "dedup" `Quick test_digraph_dedup;
          QCheck_alcotest.to_alcotest test_scc_model;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ("stats", [ Alcotest.test_case "basics" `Quick test_stats ]);
    ]
