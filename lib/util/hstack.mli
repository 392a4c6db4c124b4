(** Hash-consed immutable stacks of integers.

    Field stacks and context stacks are the hottest data structures of a
    CFL-reachability analysis: they are pushed/popped on every traversal step
    and used as hash-table keys in the summary cache. Hash-consing gives them
    O(1) physical equality and a precomputed hash, and deduplicates storage
    across the millions of stacks a query sweep creates.

    The hash-cons table is {e domain-local} and append-only; stacks from
    different analyses in the same domain share structure safely because
    stacks are immutable. Ids are unique only within a domain: a stack
    received from another domain must be {!rebase}d before it is pushed
    on, compared by {!id}, or used as a table key — every operation here
    other than the pure readers ({!to_list}, {!peek}, {!depth},
    {!is_empty}) assumes its argument was interned in the current
    domain. *)

type t

val empty : t
(** The empty stack. There is exactly one empty stack. *)

val push : t -> int -> t
(** [push s x] is the stack with [x] on top of [s]. Hash-consed: pushing the
    same element on the same stack returns the identical value. *)

val pop : t -> t option
(** [pop s] removes the top element, or [None] if [s] is empty. *)

val pop_exn : t -> t
(** @raise Invalid_argument on the empty stack. *)

val peek : t -> int option
(** Top element without removing it. *)

val top : t -> int
(** [peek] without the option, for hot paths that test {!is_empty}
    first. @raise Invalid_argument on the empty stack. *)

val is_empty : t -> bool

val depth : t -> int
(** Number of elements. O(1). *)

val equal : t -> t -> bool
(** Physical equality — valid because of hash-consing. O(1). *)

val hash : t -> int
(** Precomputed. O(1). *)

val id : t -> int
(** Unique id of this stack value; stable within a process run. *)

val to_list : t -> int list
(** Top first. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** [fold f acc s] folds [f] over the elements top first, without
    building a list. *)

val of_list : int list -> t
(** [of_list l] has [List.hd l] on top; inverse of {!to_list}. *)

val rebase : t -> t
(** Re-intern a stack into the current domain's hash-cons table
    ([of_list (to_list t)]). Required before a stack that crossed a
    domain boundary is pushed on or used as a key; a no-op (up to
    physical identity) for stacks already interned here. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by stacks, using the O(1) equality/hash above. *)
