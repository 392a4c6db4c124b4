(** Deterministic pseudo-random number generator (SplitMix64).

    Every randomised component of the reproduction (workload generation,
    property-based shrinking seeds, query shuffling) draws from this
    generator so that runs are bit-for-bit reproducible from a seed, unlike
    [Stdlib.Random] whose sequence is not stable across OCaml versions. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Generators with equal seeds
    produce equal streams. *)

val copy : t -> t
(** Independent copy sharing no state with the original. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. Streams of the
    parent and child are statistically independent. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on [||]. *)

val weighted : t -> (int * 'a) list -> 'a
(** [weighted t cases] picks a case with probability proportional to its
    non-negative integer weight. @raise Invalid_argument if all weights are
    zero or the list is empty. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws [min k (length xs)] distinct elements, preserving
    no particular order. *)
