(** Derivation footprints: the PAG nodes a PPTA walk visited.

    A summary is a function of the adjacency at the nodes its walk
    visited, so it stays valid across an edit burst iff none of them got
    dirty ({!stale}). The PPTA follows local edges only, and the PAG
    numbers a method's locals consecutively, so a footprint's nodes lie
    in a short id range: it is stored as its lowest node plus bit words
    over [[lo, hi]] — one word when the span is at most
    [Sys.int_size] ids (almost always), a few more for a wider one. *)

type t
(** An immutable set of non-negative node ids. *)

val empty : t

val of_nodes : Pag.node list -> t
(** The set of the given ids, in any order, duplicates allowed.
    @raise Invalid_argument on a negative id. *)

val nodes : t -> Pag.node list
(** Ascending and distinct: [nodes (of_nodes l)] is
    [List.sort_uniq Int.compare l]. *)

val of_pairs : Pts_util.Pairset.t -> snd:int -> mask:int -> t
(** [of_pairs s ~snd ~mask] is the set of [a land mask] over the pairs
    [(a, snd)] of [s]: how {!Kernel} reads a footprint off a walk's
    visited set, whose node ids sit in the low bits of the pair's first
    component. Builds no list. *)

val stale : Pag.node list -> t -> bool
(** [stale dirty fp]: the one invalidation cut every summary store
    applies after an edit burst with dirty nodes [dirty]. A summary
    whose footprint meets the dirty set, or is empty (no recorded
    derivation), is dropped; any other provably still describes the
    edited graph, because the local walk only reads adjacency at nodes
    it visits and a burst dirties both endpoints of every changed edge.
    Negative dirty ids are ignored. Apply it partially, once per burst:
    the dirty set becomes bit words, and each footprint word is tested
    against the dirty bits it covers with one [land]. *)
