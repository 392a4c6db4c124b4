type state = Kernel.state = S1 | S2

let state_to_int = Kernel.state_to_int
let pp_state = Kernel.pp_state

type summary = Kernel.summary = {
  objs : int list;
  tuples : (int * Pts_util.Hstack.t * state) list;
  fp : Footprint.t;
}

(* Algorithm 3 is the kernel's local walker under the exact policy: every
   field is tracked precisely, so no match edges and no jumps arise. *)
let compute = Kernel.local_summary

let frontier_only u f s = { objs = []; tuples = [ (u, f, s) ]; fp = Footprint.empty }
