(** Devirtopt: monomorphize provably-single-target virtual calls.

    Where {!Devirt} only reports whether a site could be devirtualised,
    this pass acts on the verdict the way a JIT would: every reachable
    virtual call whose receiver's points-to set dispatches to exactly one
    implementation is rewritten into a statically-bound instance call
    ([Ir.Ctor] — the receiver still flows to [this], but call-graph
    construction no longer dispatches on its points-to set). The rewritten
    program is a fresh {!Ir.program}; re-analysing it must yield the same
    verdicts, which the bench harness and tests check. *)

type rewrite = {
  rw_site : int;
  rw_caller : string;
  rw_mname : string;
  rw_target : string;
  rw_cha_targets : int;  (* CHA target count before the rewrite *)
  rw_line : int;
}

type result = {
  dv_prog : Ir.program;
  dv_rewrites : rewrite list;  (* in site order *)
  dv_virtual_sites : int;
  dv_poly_cha : int;
  dv_exceeded : int;
}

val run : ?conf:Conf.t -> engine:string -> Pipeline.t -> result
(** Query every reachable virtual site's receiver with a fresh [engine]
    and rewrite the provably-monomorphic ones. The input pipeline and its
    program are not mutated. *)

val analysis_rewrites : result -> int
(** Rewrites CHA could not justify alone ([rw_cha_targets >= 2]) — the
    sites where the points-to engine earned its keep. *)

type fixpoint = {
  fp_first : result;  (** iteration 1's pass output — the headline numbers *)
  fp_final : result;
      (** last iteration's output; when [fp_converged] its [dv_prog] is
          the fixed point (no rewrites left) *)
  fp_pipeline : Pipeline.t;  (** analysed pipeline of the final program *)
  fp_iterations : int;  (** passes actually run, [>= 1] *)
  fp_converged : bool;  (** last pass rewrote nothing *)
  fp_reachable : int list;
      (** reachable-method count per pipeline state, input program first —
          length [fp_iterations] when converged in one pass, one entry per
          re-analysis otherwise *)
  fp_pag_edges : int list;  (** total PAG edge count per pipeline state *)
}

val run_fixpoint : ?conf:Conf.t -> ?max_iters:int -> engine:string -> Pipeline.t -> fixpoint
(** Iterate {!run} on its own output until a pass rewrites nothing or
    [max_iters] (default 5, must be [>= 1]) passes ran. Devirtualizing
    monomorphic sites tightens the call graph, which can strand whole
    method bodies and in turn prove further receivers monomorphic; the
    per-state [fp_reachable] / [fp_pag_edges] lists record that
    shrinkage. *)

val pp_rewrite : Format.formatter -> rewrite -> unit
