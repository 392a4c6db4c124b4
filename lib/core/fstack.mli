(** Field stacks with cycle cutting.

    DYNSUM's explicit field stack is the pushdown store of the LFT
    language; around recursive heap structures (a linked list's
    [n.next = head] / [cur = cur.next]) exact exploration grows it without
    bound. The paper leaves this to the query budget, which answers such
    queries [Exceeded]; Algorithm 1's nested formulation instead cuts the
    cycle with its per-(node, context) visited set and still answers.

    {!push} gives the stack world the matching cut: a field may occur at
    most [max_field_repeat] times in a stack — a push beyond that is the
    unfolding of a heap cycle and returns [None] (the branch is dropped,
    exactly like a visited-set cut; nesting a class inside itself deeper
    than the limit is sacrificed, as it is by Algorithm 1's cut). This
    bounds stacks by [max_field_repeat * #fields], so exploration is
    finite.

    The depth cap is a backstop: beyond it the stack bottom becomes an
    "unknown tail" marker that matches any pop and admits "may be empty"
    (a sound over-approximation). *)

(** {2 Stack symbols}

    A stack entry is a {e field-edge label}, not a bare field: a field
    pushed by a backward load ([load(f)-bar], S1) may only be matched by a
    backward store ([store(f)-bar]), while a field pushed by a forward
    store ([store(f)], S2's alias detour) may only be matched by a forward
    load ([load(f)]). Conflating the two lets a pending load-bar be
    "answered" by reading the same field somewhere unrelated — a parse
    outside the LFT grammar. *)

val load_sym : int -> int
(** Symbol for field [f] pushed by [load(f)-bar] (Algorithm 3, S1). *)

val store_sym : int -> int
(** Symbol for field [f] pushed by [store(f)] (Algorithm 3, S2). *)

val sym_field : int -> int
(** The field id of a symbol (for printing). *)

val sym_is_load : int -> bool

val unknown_tail : int
(** The symbol {!push} leaves at the bottom of a depth-capped stack. *)

val push : Conf.t -> Pts_util.Hstack.t -> int -> Pts_util.Hstack.t option
(** Push a field. [None] = repeat-limit cut: drop this branch. *)

val pop_match : Pts_util.Hstack.t -> int -> Pts_util.Hstack.t option
(** Match the top of the stack against field [g] (the [f.Peek() = g] of
    Algorithm 3): a real match pops; the unknown-tail marker matches and
    persists; otherwise [None]. *)

val may_be_empty : Pts_util.Hstack.t -> bool
(** True for the empty stack and for a bare unknown tail. *)
