(** Growable directed graphs over dense integer nodes, with Tarjan SCC.

    Used for the call graph (recursion-cycle collapsing, §5.1 of the paper)
    and for reachability utilities in the workload generator. *)

type t

val create : ?capacity:int -> unit -> t

val ensure_node : t -> int -> unit
(** Make sure node ids [0..n] exist (isolated if never mentioned). *)

val add_edge : t -> int -> int -> unit
(** [add_edge t u v] adds a directed edge; duplicates are kept out. *)

val node_count : t -> int

val succ : t -> int -> int list
(** Successors of a node, unordered. *)

val iter_edges : t -> (int -> int -> unit) -> unit

val scc : t -> int array * int
(** [scc t] returns [(comp, count)] where [comp.(v)] is the SCC index of [v]
    in reverse topological order of the condensation (a successor's component
    index is <= the node's), and [count] the number of components. Tarjan's
    algorithm, iterative (no stack overflow on deep graphs). *)

val reachable_from : t -> int list -> bool array
(** Forward reachability from a set of roots. *)
