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

type summary = {
  objs : int list; (** allocation sites, deduplicated *)
  tuples : (int * Pts_util.Hstack.t * state) list; (** frontier states *)
}

val compute :
  Pag.t -> Conf.t -> Budget.t -> ?trace:(int -> Pts_util.Hstack.t -> state -> unit) ->
  Pag.node -> Pts_util.Hstack.t -> state -> summary
(** One PPTA run — {!Kernel.local_walk} under {!Kernel.exact_policy}.
    Consumes budget per visited state; @raise Budget.Out_of_budget, in
    which case the partial result must not be cached. [trace] observes each newly visited state (used by the Table 1
    walkthrough). *)

val compute_with_footprint :
  Pag.t -> Conf.t -> Budget.t -> Pag.node -> Pts_util.Hstack.t -> state -> summary * int list
(** {!compute}, plus the run's derivation footprint: the distinct PAG
    nodes it visited, ascending. A cached summary stays valid across an
    edit burst iff no footprint node got dirty. *)

val stale : Pag.node list -> int list -> bool
(** [stale dirty fp]: the one invalidation cut every summary store
    applies after an edit burst with dirty nodes [dirty]. A summary
    whose footprint [fp] meets the dirty set, or is empty (no recorded
    derivation), is dropped; any other provably still describes the
    edited graph, because the local walk only reads adjacency at nodes
    it visits and a burst dirties both endpoints of every changed edge.
    Apply it partially, once per burst. *)
