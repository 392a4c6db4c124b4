module Hstack = Pts_util.Hstack

module Target = struct
  type t = { site : int; hctx : Hstack.t }

  let compare a b =
    let c = Int.compare a.site b.site in
    if c <> 0 then c else Int.compare (Hstack.id a.hctx) (Hstack.id b.hctx)
end

module Target_set = Set.Make (Target)

type outcome = Resolved of Target_set.t | Exceeded

module Int_set = Set.Make (Int)

let sites ts =
  Target_set.fold (fun t acc -> Int_set.add t.Target.site acc) ts Int_set.empty
  |> Int_set.elements

let singleton ~site ~hctx = Target_set.singleton { Target.site; hctx }

let equal_outcome a b =
  match (a, b) with
  | Exceeded, Exceeded -> true
  | Resolved x, Resolved y -> Target_set.equal x y
  | (Exceeded | Resolved _), _ -> false

let equal_sites a b =
  match (a, b) with
  | Exceeded, Exceeded -> true
  | Resolved x, Resolved y -> sites x = sites y
  | (Exceeded | Resolved _), _ -> false
