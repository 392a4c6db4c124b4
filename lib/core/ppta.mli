(** Partial Points-To Analysis — Algorithm 3 of the paper, the heart of
    DYNSUM.

    A PPTA run starts from a query state [(v, f, s)] — node, field stack,
    RSM direction ([S1] = traversing a flowsTo-path backwards, [S2] =
    forwards) — and explores {e only the local edges} (new/assign/load/
    store) reachable from it, following the pointsTo and alias RSMs of
    Figure 3(a) field-sensitively. It returns:

    - the allocation sites proven to flow to the query (reached with an
      empty field stack), and
    - the {e frontier tuples} [(u, f', s')] at which a global edge
      (assignglobal/entry/exit) is about to be crossed.

    Because local edges never touch the calling context, the result is
    context-independent and can be cached and reused under any context —
    the paper's key observation. The [new n̄ew] flip from S1 to S2 at an
    allocation (line 10 of Algorithm 3) is sound because lowering gives
    every allocation site a unique destination variable. *)

type state = Kernel.state = S1 | S2

val state_to_int : state -> int
val pp_state : Format.formatter -> state -> unit

type summary = Kernel.summary = {
  objs : int list; (** allocation sites, deduplicated *)
  tuples : (int * Pts_util.Hstack.t * state) list; (** frontier states *)
  fp : Footprint.t;
      (** the derivation footprint: the distinct PAG nodes the run
          visited. A cached summary stays valid across an edit burst iff
          no footprint node got dirty ({!Footprint.stale}). *)
}

val compute :
  Pag.t -> Conf.t -> Budget.t -> Pag.node -> Pts_util.Hstack.t -> state -> summary
(** One PPTA run — {!Kernel.local_summary}: {!Kernel.local_walk} under
    {!Kernel.exact_policy}, with the footprint read off the walk's visited
    set. Consumes budget per visited state; @raise Budget.Out_of_budget,
    in which case the partial result must not be cached. *)

val frontier_only : Pag.node -> Pts_util.Hstack.t -> state -> summary
(** The summary of a node without local edges, which needs no PPTA run
    (Algorithm 4's fast path): its only continuation is itself as a
    frontier tuple. Its footprint is empty; callers do not cache it. *)
