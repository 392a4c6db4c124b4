module Hstack = Pts_util.Hstack

type state = Kernel.state = S1 | S2

let state_to_int = Kernel.state_to_int
let pp_state = Kernel.pp_state

type summary = { objs : int list; tuples : (int * Hstack.t * state) list }

(* Algorithm 3 is the kernel's local walker under the exact policy: every
   field is tracked precisely, so no match edges and no jumps arise. *)
let compute pag conf budget ?trace v0 f0 s0 =
  let r = Kernel.local_walk ?observe:trace ~policy:Kernel.exact_policy pag conf budget v0 f0 s0 in
  { objs = r.Kernel.lr_objs; tuples = r.Kernel.lr_frontier }

let compute_with_footprint pag conf budget v0 f0 s0 =
  let fp = ref [] in
  let trace v _ _ = fp := v :: !fp in
  let summary = compute pag conf budget ~trace v0 f0 s0 in
  (summary, List.sort_uniq Int.compare !fp)

(* One bitmap per burst; footprint nodes beyond the highest dirty id
   cannot be dirty. *)
let stale dirty =
  let size = List.fold_left (fun m d -> max m (d + 1)) 0 dirty in
  let bits = Bytes.make size '\000' in
  List.iter (fun d -> if d >= 0 then Bytes.set bits d '\001') dirty;
  function
  | [] -> true (* a real PPTA footprint at least holds the root *)
  | fp -> List.exists (fun v -> v < size && Bytes.get bits v = '\001') fp
