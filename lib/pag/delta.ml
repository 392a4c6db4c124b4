(* Edit overlay over the frozen CSR slabs.

   One [side] mirrors one packed slab (label × direction): [added] holds
   overlay edges per node as (aux, other) pairs in insertion order,
   [deleted] tombstones base-slab edges by their exact (node, aux, other)
   triple. Unlabelled sides use aux = 0 throughout. The module is pure
   int bookkeeping — which sides exist and what an edge means is Pag's
   business, and Pag writes both directions of every logical edge. *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* Tombstones are probed once per base edge on a side with deletions, so
   the (node, aux, other) key compares and hashes its ints directly. *)
module Edge_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((n1, a1, o1) : t) ((n2, a2, o2) : t) =
    Int.equal n1 n2 && Int.equal a1 a2 && Int.equal o1 o2

  let hash ((n, a, o) : t) = ((((n * 31) + a) * 31) + o) land max_int
end)

type side = {
  added : (int * int) list Int_tbl.t; (* node -> (aux, other), in insertion order *)
  deleted : unit Edge_tbl.t; (* (node, aux, other) *)
  mutable n_added : int;
  mutable n_deleted : int;
}

type t = { sides : side array }

let n_sides = 14

let fresh_side () =
  { added = Int_tbl.create 16; deleted = Edge_tbl.create 16; n_added = 0; n_deleted = 0 }

let create () = { sides = Array.init n_sides (fun _ -> fresh_side ()) }

let side t i = t.sides.(i)

let added_at t i node =
  match Int_tbl.find_opt (side t i).added node with Some l -> l | None -> []

let is_added t i node aux other =
  List.exists (fun (a, o) -> a = aux && o = other) (added_at t i node)

(* Appends: overlay edges are few per node and read far more often than
   written, and readers get insertion order without reversing. *)
let add t i node aux other =
  let s = side t i in
  Int_tbl.replace s.added node (added_at t i node @ [ (aux, other) ]);
  s.n_added <- s.n_added + 1

(* Removes one occurrence; the caller guarantees presence (checked via
   [is_added] before deciding between un-adding and tombstoning). *)
let remove_added t i node aux other =
  let s = side t i in
  let rec drop = function
    | [] -> []
    | (a, o) :: rest when a = aux && o = other -> rest
    | p :: rest -> p :: drop rest
  in
  (match drop (added_at t i node) with
  | [] -> Int_tbl.remove s.added node
  | l -> Int_tbl.replace s.added node l);
  s.n_added <- s.n_added - 1

let is_deleted t i node aux other = Edge_tbl.mem (side t i).deleted (node, aux, other)

let mark_deleted t i node aux other =
  let s = side t i in
  if not (Edge_tbl.mem s.deleted (node, aux, other)) then begin
    Edge_tbl.add s.deleted (node, aux, other) ();
    s.n_deleted <- s.n_deleted + 1
  end

let unmark_deleted t i node aux other =
  let s = side t i in
  if Edge_tbl.mem s.deleted (node, aux, other) then begin
    Edge_tbl.remove s.deleted (node, aux, other);
    s.n_deleted <- s.n_deleted - 1
  end

let has_deletions t i = (side t i).n_deleted > 0

let added_count t = Array.fold_left (fun acc s -> acc + s.n_added) 0 t.sides

let deleted_count t = Array.fold_left (fun acc s -> acc + s.n_deleted) 0 t.sides
