type t = {
  mutable succs : int list array;
  mutable n : int;
  edges : (int * int, unit) Hashtbl.t;
}

let create ?(capacity = 16) () =
  { succs = Array.make (max capacity 1) []; n = 0; edges = Hashtbl.create 64 }

let ensure_node t v =
  if v < 0 then invalid_arg "Digraph.ensure_node: negative node";
  if v >= t.n then begin
    let cap = Array.length t.succs in
    if v >= cap then begin
      let succs = Array.make (max (2 * cap) (v + 1)) [] in
      Array.blit t.succs 0 succs 0 t.n;
      t.succs <- succs
    end;
    t.n <- v + 1
  end

let add_edge t u v =
  ensure_node t u;
  ensure_node t v;
  if not (Hashtbl.mem t.edges (u, v)) then begin
    Hashtbl.add t.edges (u, v) ();
    t.succs.(u) <- v :: t.succs.(u)
  end

let node_count t = t.n

let succ t v = if v < t.n then t.succs.(v) else []

let iter_edges t f =
  for u = 0 to t.n - 1 do
    List.iter (fun v -> f u v) t.succs.(u)
  done

(* Iterative Tarjan: an explicit stack of (node, remaining successors)
   frames replaces recursion so that pathological call chains in generated
   workloads cannot overflow the OCaml stack. *)
let scc t =
  let n = t.n in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let visit root =
    let frames = ref [ (root, succ t root) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !frames <> [] do
      match !frames with
      | [] -> assert false
      | (v, todo) :: rest -> (
        match todo with
        | [] ->
          frames := rest;
          (match rest with
          | (parent, _) :: _ ->
            if lowlink.(v) < lowlink.(parent) then lowlink.(parent) <- lowlink.(v)
          | [] -> ());
          if lowlink.(v) = index.(v) then begin
            let rec popall () =
              match !stack with
              | [] -> assert false
              | w :: tl ->
                stack := tl;
                on_stack.(w) <- false;
                comp.(w) <- !next_comp;
                if w <> v then popall ()
            in
            popall ();
            incr next_comp
          end
        | w :: tl ->
          frames := (v, tl) :: rest;
          if index.(w) = -1 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            stack := w :: !stack;
            on_stack.(w) <- true;
            frames := (w, succ t w) :: !frames
          end
          else if on_stack.(w) && index.(w) < lowlink.(v) then lowlink.(v) <- index.(w))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  (comp, !next_comp)

let reachable_from t roots =
  let seen = Array.make (max t.n 1) false in
  let rec go v =
    if v < t.n && not seen.(v) then begin
      seen.(v) <- true;
      List.iter go (succ t v)
    end
  in
  List.iter go roots;
  seen
