(** The shared CFL-traversal kernel all four demand engines run on.

    The paper's analyses — NOREFINE, REFINEPTS, DYNSUM, STASUM — are all
    instances of one RRP/CFL-reachability machine; they differ only in how
    they treat {e local} edges (exact field stacks vs field-based match
    edges vs cached summaries). The kernel owns everything they share:

    - the RRP call/return context machine of Figure 3(b) ({!push_ctx},
      {!pop_ctx}), including the §5.1 recursion-collapsing rule and the
      partially-balanced empty-stack pop;
    - the field-sensitive {e local-edge walker} (Algorithm 3's traversal
      skeleton), parameterised by a {!type:policy} deciding per load edge
      whether to track fields exactly or jump through the field-based
      match approximation;
    - the {e global-edge worklist} of Algorithm 4 ({!solve}),
      parameterised by an {!type:expander} — the engine's local-edge
      strategy (a fresh walk, a summary cache, a static table…);
    - budget charging and the visited/seen dedup sets for both.

    Both loops walk {!Pag.View} rows with plain [for] loops and top-level
    edge handlers over a per-traversal context record, and dedup through
    {!Pts_util.Pairset} on packed {!State_key}s, so a step allocates
    nothing beyond the field stacks and results it produces.

    Engines become thin strategy wrappers, and future sharding/batching/
    parallelisation lands here once instead of four times. *)

type state = S1 | S2
(** RSM direction: [S1] traverses a flowsTo-path backwards, [S2] forwards
    (the alias detour). Re-exported as {!Ppta.state}. *)

val state_to_int : state -> int
val pp_state : Format.formatter -> state -> unit

(** The identity of a local query state — (node, field-stack id,
    [state_to_int]) — and the key of every summary/memo table. *)
module Key : sig
  type t = int * int * int

  val equal : t -> t -> bool
  val hash : t -> int
end

module Key_tbl : Hashtbl.S with type key = Key.t

(** The same identity packed into one immediate int — the key of the
    walks' own visited sets, so a probe neither allocates nor calls
    polymorphic equality. The node takes the low {!node_bits} bits (just
    enough for [node_count]), then one state bit, then the field-stack id
    in the {!id_bits} bits left in a non-negative int. *)
module State_key : sig
  type layout

  val layout : node_count:int -> layout

  val node_bits : layout -> int
  val id_bits : layout -> int

  val pack : layout -> node:int -> state:state -> id:int -> int
  (** Injective on its domain. @raise Invalid_argument when [node] or
      [id] is negative or does not fit its bits — never a silent
      collision. *)
end

(** {2 Context stacks (call-site ids)} *)

val push_ctx : Pag.t -> Pts_util.Hstack.t -> int -> Pts_util.Hstack.t
(** Enter a method through call site [i] (no-op for recursive sites). *)

val pop_ctx : Pag.t -> Pts_util.Hstack.t -> int -> Pts_util.Hstack.t option
(** Leave a method through call site [i]: [None] when the path is
    unrealizable (stack top differs from [i]); [Some] of the popped stack
    when the top matches, the stack is empty, or the site is recursive. *)

(** {2 The local-edge walker} *)

type policy = {
  exact : bool;
      (** [true] short-circuits all match-edge machinery: every field is
          tracked exactly (Algorithm 3 / NOREFINE / the PPTA) *)
  refined : dst:Pag.node -> fld:int -> base:Pag.node -> bool;
      (** is load edge [dst = base.fld] refined (tracked exactly)? *)
  note_match : dst:Pag.node -> fld:int -> base:Pag.node -> unit;
      (** an unrefined load edge was crossed via its match edge — record
          it for the next refinement pass *)
  match_pts : int -> int list;
      (** field-based points-to of a field: sites storable into any
          [_.fld] (see {!Fieldbased.pts_of_field}) *)
  match_flows : int -> Pag.node list;
      (** field-based flows of a field: nodes a value stored into any
          [_.fld] may surface at (see {!Fieldbased.flows_of_field}) *)
}

val exact_policy : policy

type local_result = {
  lr_objs : int list;  (** sites reached with an empty stack — harvest under the current context *)
  lr_match_objs : int list;
      (** sites contributed by match edges — context-free harvest *)
  lr_frontier : (Pag.node * Pts_util.Hstack.t * state) list;
      (** states at which a global edge is about to be crossed; {!solve}
          expands them under the RRP context machine *)
  lr_jumps : (Pag.node list * Pts_util.Hstack.t * state) list;
      (** match-edge continuations, grouped by the field stack and
          direction they share (a group's node list is usually the
          field-based index's own list, not a copy); {!solve} propagates
          them with the calling context cleared, groups newest first and
          each group's nodes last to first *)
}

val frontier_only : Pag.node -> Pts_util.Hstack.t -> state -> local_result
(** The fast path for a node without local edges: its only continuation is
    itself as a frontier state. *)

val local_walk :
  policy:policy ->
  Pag.t -> Conf.t -> Budget.t -> Pag.node -> Pts_util.Hstack.t -> state -> local_result
(** One local-edge-only traversal from a query state. With {!exact_policy}
    this is exactly Algorithm 3. Consumes budget per newly visited state.
    @raise Budget.Out_of_budget, in which case the partial result must
    not be cached. *)

type summary = {
  objs : int list;  (** sites reached with an empty stack, deduplicated *)
  tuples : (Pag.node * Pts_util.Hstack.t * state) list;  (** frontier states *)
  fp : Footprint.t;  (** the distinct nodes the walk visited *)
}
(** A PPTA summary; re-exported as {!Ppta.summary}. *)

val local_summary :
  Pag.t -> Conf.t -> Budget.t -> Pag.node -> Pts_util.Hstack.t -> state -> summary
(** {!local_walk} under {!exact_policy} (Algorithm 3, see {!Ppta.compute}),
    plus the walk's derivation footprint, read off its own visited set
    when it returns. Only this walk pays for a footprint; {!local_walk}
    builds none. @raise Budget.Out_of_budget as {!local_walk}. *)

(** {2 The global-edge worklist (Algorithm 4)} *)

type expander = Pag.node -> Pts_util.Hstack.t -> state -> local_result
(** The engine's local-edge strategy: given a popped worklist state,
    produce its local consequences (however it likes — walking, a summary
    cache, a precomputed table). *)

val solve :
  ?stop:(Query.Target_set.t -> bool) ->
  Pag.t -> Budget.t -> expander -> Pag.node -> Pts_util.Hstack.t -> Query.Target_set.t
(** Run the worklist from [(v, ε, S1, c0)] to exhaustion. [stop] is
    checked whenever the accumulated target set grows (and once on the
    empty set); when it returns [true] the loop returns the partial set
    immediately. {b Soundness caveat}: the accumulated set grows towards
    the answer from below, so early exit is only meaningful for
    anti-monotone client predicates in the {e refutation} direction —
    see {!Dynsum.points_to}. @raise Budget.Out_of_budget *)
