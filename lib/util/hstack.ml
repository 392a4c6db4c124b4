type t =
  | Empty
  | Cons of { id : int; depth : int; top : int; rest : t }

let id = function Empty -> 0 | Cons c -> c.id

let equal = ( == )

let hash t = id t

(* The hash-cons table maps (top, id rest) to the existing cell, so that
   [push] is the only allocator of [Cons] cells. *)
module Key = struct
  type t = int * int

  let equal ((a1, b1) : t) ((a2, b2) : t) = Int.equal a1 a2 && Int.equal b1 b2
  let hash ((a, b) : t) = (a * 0x1fffffff) lxor b
end

module Cache = Hashtbl.Make (Key)

(* One hash-cons store per domain: plain Hashtbls are not safe under
   concurrent mutation, and worker domains intern stacks continuously.
   Domain-local stores make [push] race-free without a lock on the hot
   path; the price is that ids are only unique {e within} a domain, so
   stacks must be {!rebase}d when they cross domains. [Empty] is the one
   shared constructor and is valid everywhere. *)
type store = { cache : t Cache.t; mutable next_id : int }

let store_key =
  Domain.DLS.new_key (fun () -> { cache = Cache.create 4096; next_id = 1 })

let empty = Empty

let depth = function Empty -> 0 | Cons c -> c.depth

let push t x =
  let store = Domain.DLS.get store_key in
  let key = (x, id t) in
  match Cache.find store.cache key with
  | s -> s
  | exception Not_found ->
    let s = Cons { id = store.next_id; depth = depth t + 1; top = x; rest = t } in
    store.next_id <- store.next_id + 1;
    Cache.add store.cache key s;
    s

let pop = function Empty -> None | Cons c -> Some c.rest

let pop_exn = function
  | Empty -> invalid_arg "Hstack.pop_exn: empty stack"
  | Cons c -> c.rest

let peek = function Empty -> None | Cons c -> Some c.top

let top = function Empty -> invalid_arg "Hstack.top: empty stack" | Cons c -> c.top

let is_empty = function Empty -> true | Cons _ -> false

let rec to_list = function Empty -> [] | Cons c -> c.top :: to_list c.rest

let rec fold f acc = function Empty -> acc | Cons c -> fold f (f acc c.top) c.rest

let of_list l = List.fold_left push empty (List.rev l)

let rebase t = of_list (to_list t)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
