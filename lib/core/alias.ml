type verdict = Must_not | May | Unknown

let overlap a b = not (Query.Target_set.is_empty (Query.Target_set.inter a b))

let with_sets (engine : Engine.engine) x y k =
  match (engine.Engine.points_to x, engine.Engine.points_to y) with
  | Query.Resolved a, Query.Resolved b -> k a b
  | Query.Exceeded, _ | _, Query.Exceeded -> Unknown

(* Oracle fast path: disjoint Andersen rows refute every shared target
   (the demand answers are subsets of the rows), so [Must_not] holds with
   no query at all. A shared singleton row would still need the precise
   heap contexts, so only disjointness short-circuits. *)
let may_alias pag engine x y =
  if x = y then May
  else if Pag.oracle_disjoint pag x y then Must_not
  else with_sets engine x y (fun a b -> if overlap a b then May else Must_not)

let sites_overlap a b =
  let sa = Query.sites a and sb = Query.sites b in
  List.exists (fun s -> List.mem s sb) sa

let may_alias_sites pag engine x y =
  if x = y then May
  else if Pag.oracle_disjoint pag x y then Must_not
  else with_sets engine x y (fun a b -> if sites_overlap a b then May else Must_not)
