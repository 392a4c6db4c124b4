module Hstack = Pts_util.Hstack

let unknown_tail = -1

let load_sym f = 2 * f
let store_sym f = (2 * f) + 1
let sym_field sym = sym / 2
let sym_is_load sym = sym land 1 = 0

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let occurrences g f = Hstack.fold (fun n x -> if x = g then n + 1 else n) 0 f

let push conf f g =
  if occurrences g f >= conf.Conf.max_field_repeat then None
  else if Hstack.depth f < conf.Conf.max_field_depth then Some (Hstack.push f g)
  else begin
    let real = List.filter (fun x -> x <> unknown_tail) (Hstack.to_list f) in
    let kept = take (conf.Conf.max_field_depth - 2) real in
    Some (Hstack.of_list ((g :: kept) @ [ unknown_tail ]))
  end

let pop_match f g =
  if Hstack.is_empty f then None
  else
    let top = Hstack.top f in
    if top = g then Some (Hstack.pop_exn f) else if top = unknown_tail then Some f else None

let may_be_empty f =
  Hstack.is_empty f || (Hstack.depth f = 1 && Hstack.top f = unknown_tail)
