(** Open-addressing sets of int pairs [(a, b)] with [a >= 0].

    The dedup sets of the CFL kernel's inner loops: a membership probe or
    an insertion of a fresh pair never allocates (only doubling the table
    does), and keys are compared as ints, never through polymorphic
    equality. *)

type t

val create : int -> t
(** [create n]: room for about [n] pairs before the first doubling. *)

val add : t -> int -> int -> bool
(** [add t a b] inserts the pair; [true] iff it was not yet present.
    @raise Invalid_argument if [a < 0]. *)

val mem : t -> int -> int -> bool

val length : t -> int

val clear : t -> unit
(** Empty the set in time proportional to its size, keeping the table
    for reuse (unless it grew large). *)

val iter : (int -> int -> unit) -> t -> unit
(** In insertion order. *)

val nth_fst : t -> int -> int
val nth_snd : t -> int -> int
(** [nth_fst t k] and [nth_snd t k] are the components of the [k]-th
    pair in insertion order, [0 <= k < length t]: {!iter} without a
    closure. *)
