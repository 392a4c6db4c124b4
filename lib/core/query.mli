(** Query results shared by all demand-driven analyses.

    A points-to target is an abstract object: an allocation site paired
    with a heap context (the calling-context stack in force when the
    analysis reached the allocation — the paper's heap-abstraction axis of
    context sensitivity). Clients usually {!sites}-project targets. *)

module Target : sig
  type t = { site : int; hctx : Pts_util.Hstack.t }

  val compare : t -> t -> int
end

module Target_set : Set.S with type elt = Target.t

type outcome =
  | Resolved of Target_set.t
  | Exceeded  (** budget exhausted: answer unknown *)

val sites : Target_set.t -> int list
(** Distinct allocation sites, ascending. *)

val singleton : site:int -> hctx:Pts_util.Hstack.t -> Target_set.t

val equal_outcome : outcome -> outcome -> bool

val equal_sites : outcome -> outcome -> bool
(** Same verdict shape and same site projection (ignores heap contexts). *)
