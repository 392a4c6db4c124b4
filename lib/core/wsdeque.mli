(** Chase-Lev work-stealing deque (single owner, many thieves).

    The batch scheduler ({!Parsolve}) gives every worker domain one
    deque: the owner treats the bottom as a LIFO stack ({!push}/{!pop}),
    idle peers {!steal} from the top, so the oldest (in our seeding:
    the last of its block in arrival order) task of the busiest domain
    migrates first.

    Lock-free: [top] is advanced by a compare-and-set, [bottom] only by
    the owner. OCaml's [Atomic] is sequentially consistent, which
    supplies the fences the original algorithm needs; buffer growth
    replaces the circular array wholesale, so thieves holding the old
    array still read valid elements.

    Ownership discipline — {b not} checked at runtime: {!push} and
    {!pop} must only ever be called from one domain at a time (ownership
    may transfer across a [Domain.spawn] happens-before edge, which is
    how {!Parsolve} seeds deques on the main domain before handing them
    to workers); {!steal} and {!size} are safe from any domain. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty deque. [capacity] (default 16) is the initial ring size;
    the deque grows unboundedly as needed. *)

val push : 'a t -> 'a -> unit
(** Owner only: add at the bottom. *)

val pop : 'a t -> 'a option
(** Owner only: take the most recently pushed remaining element, or
    [None] when the deque is (momentarily) empty. *)

val steal : 'a t -> 'a option
(** Any domain: take the oldest remaining element. [None] means the
    deque looked empty {e or} the attempt lost a race with a concurrent
    taker — callers should re-check {!size} before concluding the deque
    is exhausted. *)

val size : 'a t -> int
(** Snapshot of the element count; exact when quiescent, a bounded
    approximation under concurrency (never negative). *)

val is_empty : 'a t -> bool
