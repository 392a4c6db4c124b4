(** Call graph, built on the fly by the Andersen solver (our Spark
    substitute) while it discovers receiver types.

    After construction, {!mark_recursion} collapses call-graph cycles the
    way §5.1 of the paper describes: every call site whose caller and some
    target belong to the same SCC is flagged on the PAG as recursive, and
    the CFL analyses traverse its entry/exit edges context-insensitively. *)

type t

val create : Ir.program -> t

val add_edge : t -> site:int -> caller:int -> target:int -> bool
(** Record a call edge; returns [true] iff it is new. *)

val targets : t -> int -> int list
(** Target method ids of a call site (empty if unresolved/dead). *)

val edge_count : t -> int

val iter_edges : t -> (site:int -> caller:int -> target:int -> unit) -> unit

val mark_recursion : t -> Pag.t -> int
(** Tarjan SCC over methods; marks recursive sites on the PAG and returns
    the number of non-singleton SCCs. *)

val method_sccs : t -> int array * int
(** SCC index per method id (valid after construction finished). *)
