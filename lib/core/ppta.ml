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
