(** Growable bitsets over non-negative integers.

    The Andersen solver's points-to sets are dense allocation-site ids;
    bitsets make unions (its hottest operation) word-parallel. *)

type t

val create : ?capacity:int -> unit -> t

val mem : t -> int -> bool

val add : t -> int -> bool
(** [add t x] returns [true] iff [x] was not already present. *)

val union_into : dst:t -> t -> bool
(** [union_into ~dst src] adds all of [src] to [dst]; returns [true] iff
    [dst] changed. [dst] grows only as far as [src]'s highest element,
    never to [src]'s capacity. *)

val diff_union_into : dst:t -> delta:t -> t -> bool
(** [diff_union_into ~dst ~delta src] adds all of [src] to [dst] and
    records the elements that were genuinely new (in [src] but not
    previously in [dst]) into [delta] as well; returns [true] iff [dst]
    changed. The primitive of difference propagation: [delta]
    accumulates exactly the not-yet-propagated frontier. *)

val inter_empty : t -> t -> bool
(** [inter_empty a b] — is [a ∩ b] empty? Allocation-free. *)

val clear : t -> unit
(** Remove all elements (keeps capacity). *)

val choose_singleton : t -> int option
(** [Some x] iff the set is exactly [{x}]; [None] otherwise. *)

val cardinal : t -> int

val is_empty : t -> bool

val iter : t -> (int -> unit) -> unit
(** Ascending order; visits set bits only, one {!lowest_bit} per element. *)

val lowest_bit : int -> int
(** [lowest_bit w] is the index of the lowest set bit of the non-zero word
    [w]: the step of every set-bit walk over a word slab. *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val to_list : t -> int list
(** Ascending. *)

val copy : t -> t

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] — is every element of [a] in [b]? *)
