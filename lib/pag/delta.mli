(** Edit overlay over the frozen CSR slabs.

    Fourteen {e sides} (one per packed slab: label × direction), each an
    added-edge adjacency plus a tombstone set for deleted base edges.
    Everything is plain ints — edge semantics, direction symmetry and the
    side numbering live in {!Pag}, which is the only writer. Unlabelled
    sides carry aux = 0.

    Reads are lock-free Hashtbl lookups; during query execution no domain
    writes the overlay (edits happen strictly between query batches, like
    {!Pag.freeze} before them), so sharing the frozen-plus-overlay view
    across domains stays safe. *)

type t

val create : unit -> t

val add : t -> int -> int -> int -> int -> unit
(** [add t side node aux other] appends an overlay edge (linear in the
    node's overlay edges on that side). *)

val remove_added : t -> int -> int -> int -> int -> unit
(** Remove one previously-added occurrence (caller checks {!is_added}). *)

val is_added : t -> int -> int -> int -> int -> bool

val mark_deleted : t -> int -> int -> int -> int -> unit
(** Tombstone a base-slab edge; idempotent. *)

val unmark_deleted : t -> int -> int -> int -> int -> unit

val is_deleted : t -> int -> int -> int -> int -> bool

val has_deletions : t -> int -> bool
(** Fast guard: any tombstone on this side at all? Lets base-slab loops
    skip the per-edge tombstone probe when nothing was ever deleted. *)

val added_at : t -> int -> int -> (int * int) list
(** Overlay edges [(aux, other)] of a node on a side, in {e insertion}
    order — deterministic, so replayed edit histories enqueue
    identically. Returns the stored list: no allocation. *)

val added_count : t -> int
val deleted_count : t -> int
