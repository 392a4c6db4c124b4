(* The work-stealing deque.

   Wsdeque's contract is small enough to pin exactly: single-owner
   push/pop at the bottom, any-domain steal at the top. Sequentially
   (one domain, no races) every operation must agree with the obvious
   two-ended list model — that is the linearizable behaviour, checked
   against random op sequences. Concurrently, the one property the
   scheduler relies on is no-loss/no-duplication: every pushed element
   is taken exactly once, whichever side takes it. *)

(* ----------------------- model-based sequential ---------------------- *)

type op = Push of int | Pop | Steal

let op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun x -> Push x) (int_bound 1000)); (2, return Pop); (2, return Steal) ])

let op_print = function
  | Push x -> Printf.sprintf "Push %d" x
  | Pop -> "Pop"
  | Steal -> "Steal"

let ops_arb =
  QCheck.make ~print:(QCheck.Print.list op_print)
    (QCheck.Gen.list_size (QCheck.Gen.int_bound 200) op_gen)

(* the model: a list with its back at the owner's end. push appends at
   the back, pop takes from the back, steal from the front *)
let model_apply model = function
  | Push x -> (model @ [ x ], None)
  | Pop -> (
    match List.rev model with
    | [] -> (model, None)
    | x :: rev_rest -> (List.rev rev_rest, Some x))
  | Steal -> ( match model with [] -> (model, None) | x :: rest -> (rest, Some x))

let test_sequential_model =
  QCheck.Test.make ~count:500 ~name:"sequential push/pop/steal match the list model" ops_arb
    (fun ops ->
      let q = Wsdeque.create ~capacity:2 () in
      let model = ref [] in
      List.for_all
        (fun op ->
          let m', expect = model_apply !model op in
          model := m';
          let got =
            match op with
            | Push x ->
              Wsdeque.push q x;
              None
            | Pop -> Wsdeque.pop q
            | Steal -> Wsdeque.steal q
          in
          got = expect && Wsdeque.size q = List.length !model)
        ops)

(* ----------------------- concurrent no-loss/no-dup ------------------- *)

(* Pre-seed the deque exactly the way Parsolve does, then let the owner
   pop while several thief domains steal. Every element must be taken by
   exactly one party. The elements are distinct ints so a multiset check
   is a sorted-list equality. *)
let test_multi_thief () =
  let n = 10_000 and thieves = 3 in
  let q = Wsdeque.create () in
  for i = 0 to n - 1 do
    Wsdeque.push q i
  done;
  let thief () =
    let taken = ref [] in
    let rec go () =
      match Wsdeque.steal q with
      | Some v ->
        taken := v :: !taken;
        go ()
      | None -> if Wsdeque.size q > 0 then go () (* lost a race, not empty *)
    in
    go ();
    !taken
  in
  let doms = Array.init thieves (fun _ -> Domain.spawn thief) in
  let mine = ref [] in
  let rec own () =
    match Wsdeque.pop q with
    | Some v ->
      mine := v :: !mine;
      own ()
    | None -> ()
  in
  own ();
  let stolen = Array.to_list doms |> List.concat_map Domain.join in
  let all = List.sort compare (!mine @ stolen) in
  Alcotest.(check int) "every element taken exactly once" n (List.length all);
  Alcotest.(check bool) "no duplicates, no losses" true (all = List.init n Fun.id);
  Alcotest.(check int) "deque drained" 0 (Wsdeque.size q)

(* owner pushing concurrently with thieves: the scheduler never does
   this mid-batch, but the deque must not lose elements if it ever does *)
let test_push_race () =
  let n = 5_000 in
  let q = Wsdeque.create ~capacity:2 () in
  let thief () =
    let taken = ref [] in
    let rec go quiet =
      match Wsdeque.steal q with
      | Some v ->
        taken := v :: !taken;
        go 0
      | None ->
        (* keep scavenging for a while after the queue looks empty so we
           overlap the tail of the owner's pushes *)
        if quiet < 10_000 then go (quiet + 1)
    in
    go 0;
    !taken
  in
  let d = Domain.spawn thief in
  let mine = ref [] in
  for i = 0 to n - 1 do
    Wsdeque.push q i;
    if i mod 3 = 0 then match Wsdeque.pop q with Some v -> mine := v :: !mine | None -> ()
  done;
  let rec drain () =
    match Wsdeque.pop q with
    | Some v ->
      mine := v :: !mine;
      drain ()
    | None -> if Wsdeque.size q > 0 then drain ()
  in
  drain ();
  let stolen = Domain.join d in
  let all = List.sort compare (!mine @ stolen) in
  Alcotest.(check bool) "push race: no duplicates, no losses" true (all = List.init n Fun.id)

(* ------------------------------ emptiness --------------------------- *)

(* is_empty, pop and steal on a fresh deque, on one drained from either
   end, and on one refilled after draining: the workers' termination
   test reads exactly these answers *)
let test_empty () =
  let q = Wsdeque.create ~capacity:2 () in
  let check_empty what =
    Alcotest.(check bool) (what ^ ": is_empty") true (Wsdeque.is_empty q);
    Alcotest.(check int) (what ^ ": size") 0 (Wsdeque.size q);
    Alcotest.(check (option int)) (what ^ ": pop") None (Wsdeque.pop q);
    Alcotest.(check (option int)) (what ^ ": steal") None (Wsdeque.steal q)
  in
  check_empty "fresh";
  for i = 0 to 9 do
    Wsdeque.push q i
  done;
  Alcotest.(check bool) "filled: not empty" false (Wsdeque.is_empty q);
  for _ = 0 to 9 do
    ignore (Wsdeque.pop q)
  done;
  check_empty "drained by pop";
  for i = 0 to 9 do
    Wsdeque.push q i
  done;
  for i = 0 to 9 do
    Alcotest.(check (option int)) "refilled: steal in push order" (Some i) (Wsdeque.steal q)
  done;
  check_empty "drained by steal"

let () =
  Alcotest.run "wsdeque"
    [
      ( "deque",
        [
          QCheck_alcotest.to_alcotest test_sequential_model;
          Alcotest.test_case "multi-thief no-loss/no-dup" `Quick test_multi_thief;
          Alcotest.test_case "owner-push race no-loss/no-dup" `Quick test_push_race;
        ] );
      ("emptiness", [ Alcotest.test_case "fresh, drained and refilled deques" `Quick test_empty ]);
    ]
