(** The Pointer Assignment Graph (§2 of the paper).

    Nodes are method-local variables (V), globals/static fields (G) and
    allocation sites (O); edges carry the seven labels of the paper:
    [new], [assign], [assignglobal], [load(f)], [store(f)], [entry_i],
    [exit_i]. All edges are oriented in the direction of value flow.

    Adjacency is indexed exactly the way the demand-driven CFL analyses
    traverse it — by label and direction — plus a per-field index of all
    loads and stores (needed by the field-based "match edge" phase of
    REFINEPTS). The paper's local/global edge classification drives
    DYNSUM's PPTA: {!has_local_edges}, {!has_global_in}, {!has_global_out}.

    Node ids are dense: locals first (grouped by method), then globals,
    then allocation sites. *)

type t

type node = int

type fld = int

type site = int
(** Call-site id (context element). *)

(** {2 Construction} *)

val create : Ir.program -> t
(** Allocates all nodes for the program; no edges yet. *)

val program : t -> Ir.program

val local_node : t -> meth:int -> var:int -> node
val global_node : t -> int -> node
val obj_node : t -> int -> node

(** All [add_*] functions deduplicate silently. *)

val add_new : t -> obj_:node -> dst:node -> unit
(** @raise Invalid_argument if [obj_] already flows to a different variable:
    lowering guarantees a unique destination per allocation site, and the
    analyses' [new n̄ew] direction flip relies on it. *)

val add_assign : t -> src:node -> dst:node -> unit
(** Local assignment: both endpoints in the same method. *)

val add_assign_global : t -> src:node -> dst:node -> unit
(** Assignment with at least one global endpoint; context-insensitive. *)

val add_load : t -> base:node -> fld:fld -> dst:node -> unit
(** [dst = base.fld]. *)

val add_store : t -> base:node -> fld:fld -> src:node -> unit
(** [base.fld = src]. *)

val add_entry : t -> site:site -> actual:node -> formal:node -> unit

val add_exit : t -> site:site -> retval:node -> dst:node -> unit

val set_recursive_site : t -> site -> unit
(** Mark a call site as part of a call-graph cycle: the analyses traverse
    its entry/exit edges context-insensitively. *)

val freeze : t -> unit
(** Seal the graph: pack the list adjacency into int-array CSR slabs (one
    per label and direction), precompute the derived per-node flags and
    the per-field load/store indices, and free the construction-only
    state (the edge-dedup table and the build-side lists). Call after all
    edges are added; adding edges afterwards raises. A frozen graph is
    never written again, so it is safe to share across domains. *)

(** {2 The packed (CSR) adjacency — requires {!freeze}}

    The hot paths (the CFL kernel) iterate these slabs directly instead
    of materialising lists. Edges of node [n] in a slab [s] occupy
    [s.off.(n) .. s.off.(n+1) - 1] of [s.dst]; for the labelled slabs
    (load/store/entry/exit) the parallel [s.aux] carries the field or
    call-site id, and for the unlabelled ones it is [[||]]. *)

type slab = private { off : int array; dst : int array; aux : int array }

type packed = private {
  p_new_in : slab;
  p_new_out : slab;
  p_assign_in : slab;
  p_assign_out : slab;
  p_global_in : slab;
  p_global_out : slab;
  p_load_in : slab;
  p_load_out : slab;
  p_store_in : slab;
  p_store_out : slab;
  p_entry_in : slab;
  p_entry_out : slab;
  p_exit_in : slab;
  p_exit_out : slab;
}

val packed : t -> packed
(** @raise Invalid_argument before {!freeze}. *)

val degree : slab -> node -> int

(** {2 Node accessors} *)

type node_kind =
  | Local of { meth : int; var : int }
  | Global of int
  | Obj of int  (** allocation-site id *)

val node_count : t -> int
val kind : t -> node -> node_kind
val is_obj : t -> node -> bool
val obj_site : t -> node -> int
(** @raise Invalid_argument if not an object node. *)

val node_name : t -> node -> string
(** Human-readable, e.g. ["Vector.add::p"], ["Client.vec$static"], ["o26"]. *)

val method_of_node : t -> node -> int option
(** Enclosing method for locals; [None] for globals and objects. *)

(** {2 Adjacency (direction of value flow)}

    List views: backed by the build-side lists before {!freeze} and
    reconstructed from the CSR slabs afterwards (allocating — cold paths
    only; hot loops walk {!View} rows). *)

val new_in : t -> node -> node list
(** At a variable [v]: objects [o] with [o -new-> v]. *)

val new_out : t -> node -> node list
(** At an object [o]: its (unique) destination variable, or [] . *)

val assign_in : t -> node -> node list
val assign_out : t -> node -> node list
val global_in : t -> node -> node list
val global_out : t -> node -> node list

val load_in : t -> node -> (fld * node) list
(** At a load destination [v]: pairs [(f, base)] with [v = base.f]. *)

val load_out : t -> node -> (fld * node) list
(** At a base [b]: pairs [(f, dst)] with [dst = b.f]. *)

val store_in : t -> node -> (fld * node) list
(** At a base [b]: pairs [(f, src)] with [b.f = src]. *)

val store_out : t -> node -> (fld * node) list
(** At a source [s]: pairs [(f, base)] with [base.f = s]. *)

val entry_in : t -> node -> (site * node) list
(** At a formal [p]: pairs [(i, actual)]. *)

val entry_out : t -> node -> (site * node) list
(** At an actual [a]: pairs [(i, formal)]. *)

val exit_in : t -> node -> (site * node) list
(** At a caller-side destination [d]: pairs [(i, retval)]. *)

val exit_out : t -> node -> (site * node) list
(** At a callee return value [r]: pairs [(i, dst)]. *)

val loads_of_field : t -> fld -> (node * node) list
(** All [(base, dst)] load edges of a field, program-wide. *)

val stores_of_field : t -> fld -> (node * node) list
(** All [(base, src)] store edges of a field, program-wide. *)

val is_recursive_site : t -> site -> bool

(** {2 PPTA classification (requires {!freeze})} *)

val has_local_edges : t -> node -> bool
(** Any incident [new]/[assign]/[load]/[store] edge. *)

val has_global_in : t -> node -> bool
(** Any incoming [assignglobal]/[entry]/[exit] edge. *)

val has_global_out : t -> node -> bool

(** {2 Pruning oracle}

    An optional flat slab mapping every PAG node to an over-approximate
    allocation-site set (its Andersen points-to set; object nodes map to
    their own site, pointer-free nodes to the empty set). Installed once
    by the whole-program pre-analysis {e before} {!freeze}, after which
    it is immutable and safe to share read-only across domains. The
    demand kernel consults it to skip traversal states that provably
    cannot reach the sought allocation — see {!Kernel.pruner}.

    Every accessor answers conservatively (prune nothing) when no oracle
    is installed, so hand-built and CHA-only graphs keep working. *)

val oracle_row_words : t -> int
(** Words per oracle row: [ceil (sites / Sys.int_size)], at least 1. *)

val set_oracle : t -> stride:int -> int array -> unit
(** [set_oracle t ~stride slab] installs [slab] as the oracle, without
    copying: row [n] is words [n * stride .. n * stride + stride - 1], bit
    [b] of word [i] standing for allocation site [i * Sys.int_size + b].
    [stride] must be {!oracle_row_words} and [slab] exactly
    {!node_count}[ * stride] words long; the caller hands the slab over
    and must not write it again. Call at most once.
    @raise Invalid_argument on a second call, a wrong [stride] or length,
    or a bit at or beyond the number of allocation sites in a row's last
    word. *)

val oracle_row : t -> node -> Pts_util.Bitset.t
(** A fresh set holding the node's installed row (edit invalidation is
    ignored: this is the row as installed); empty when no oracle is
    installed. [Solver.points_to] answers with it, so callers may mutate
    the result. *)

val has_oracle : t -> bool

val oracle_row_empty : t -> node -> bool
(** Node provably points to nothing. [false] when no oracle. *)

val oracle_mem : t -> node -> int -> bool
(** May [n] point to allocation site [site]? [true] when no oracle. *)

val oracle_disjoint : t -> node -> node -> bool
(** Are the two rows provably disjoint (definite no-alias)?
    [false] when no oracle. *)

val oracle_singleton : t -> node -> int option
(** [Some site] iff the row is exactly one site {e and} that site is not a
    summary object ({!site_is_summary}): the strong-update admission test.
    A singleton row over a summary site proves nothing — one abstract
    array, null or loop allocation stands for many runtime objects — so
    it answers [None], as it does when no oracle is installed. *)

val site_is_summary : t -> int -> bool
(** Does allocation site [site] conflate several runtime objects — an
    array object (every element collapses onto one field), a null
    pseudo-allocation, or an allocation under a loop (one object per
    iteration)? Sites of methods lowered without {!Ir.meth.depths}
    metadata are conservatively summary. Out-of-range sites answer
    [true]. *)

val oracle_row_size : t -> node -> int
(** Number of allocation sites in the node's row — the serve daemon's
    admission proxy for how much of the graph a query rooted here can
    reach.
    [0] when no oracle is installed (indistinguishable from a genuinely
    empty row; use {!has_oracle} to tell them apart). *)

(** {2 Statistics} *)

type edge_counts = {
  n_new : int;
  n_assign : int;
  n_load : int;
  n_store : int;
  n_entry : int;
  n_exit : int;
  n_assign_global : int;
}

val edge_counts : t -> edge_counts

val locality : t -> float
(** Fraction of local edges among all edges (Table 3's "Locality"). *)

val touched_counts : t -> int * int * int
(** [(objs, locals, globals)] with at least one incident edge — the
    reachable part of the graph, which is what Table 3 reports. *)

(** {2 Row view (base + overlay) — requires {!freeze}}

    The allocation-free adjacency the engines traverse. A node's edges on
    a side are its frozen CSR row [(slab t side).off.(n) ..
    (slab t side).off.(n+1) - 1], minus the base edges {!View.is_deleted}
    reports (probe only when {!View.tombstoned}), followed by the
    {!View.added} overlay edges in insertion order. With no pending edits
    ({!View.overlaid} is [false]) the row is the whole answer. Unlabelled
    sides have an empty [aux] and probe tombstones with aux [0]. *)

module View : sig
  type side = private int
  (** One label × direction, naming both its slab and its overlay. The
      labelled sides carry the field ([load_*], [store_*]) or call site
      ([entry_*], [exit_*]) in [aux]; [dst] is the other endpoint, e.g.
      the base at a load destination for [load_in], the formal at an
      actual for [entry_out]. *)

  val new_in : side
  val new_out : side
  val assign_in : side
  val assign_out : side
  val global_in : side
  val global_out : side
  val load_in : side
  val load_out : side
  val store_in : side
  val store_out : side
  val entry_in : side
  val entry_out : side
  val exit_in : side
  val exit_out : side

  val slab : t -> side -> slab
  (** The frozen CSR slab of a side (the same record as in {!packed}). *)

  val overlaid : t -> bool
  (** Has any edit batch been applied? [false] means every row is exactly
      its slab row. *)

  val tombstoned : t -> side -> bool
  (** Does any base edge of this side carry a tombstone? When [false] the
      per-edge {!is_deleted} probe can be skipped. *)

  val is_deleted : t -> side -> node -> int -> node -> bool
  (** [is_deleted t side n aux other]: is this base edge deleted? *)

  val added : t -> side -> node -> (int * node) list
  (** The node's overlay edges [(aux, other)] on a side, in insertion
      order; [[]] without an overlay. Does not allocate. *)

  val has_new_in : t -> node -> bool
  (** Any [new] edge into this variable in the current view? Constant
      time on an unedited graph. *)
end

(** {2 Post-freeze edits}

    The frozen slabs stay immutable; edits accumulate in a delta overlay
    that every list accessor composes on the fly and {!View} exposes row
    by row.
    Each {!apply_edits} batch bumps the {!epoch} and returns the set of
    dirty nodes so summary caches can invalidate exactly the entries
    whose derivations touched them. Edits must happen strictly between
    query batches (same discipline as {!freeze}): the overlay is read
    lock-free by querying domains. *)

type ekind =
  | Enew of { obj_ : node; dst : node }
  | Eassign of { src : node; dst : node }
  | Eglobal of { src : node; dst : node }
  | Eload of { base : node; fld : fld; dst : node }
  | Estore of { base : node; fld : fld; src : node }
  | Eentry of { site : site; actual : node; formal : node }
  | Eexit of { site : site; retval : node; dst : node }

type edit = Eadd of ekind | Edel of ekind

type commit = {
  c_epoch : int;  (** epoch after the batch *)
  c_dirty : node list;  (** endpoints of changed edges, sorted, deduped *)
  c_inserted : int;  (** edges actually inserted (duplicates skipped) *)
  c_deleted : int;  (** edges actually deleted (absent edges skipped) *)
  c_oracle_invalidated : int;  (** Andersen rows newly flipped to conservative *)
}

val apply_edits : t -> edit list -> commit
(** Apply a batch. Inserting an edge that already exists or deleting one
    that doesn't is a silent no-op (mirroring the builder's dedup); a
    delete followed by a re-add restores the graph exactly, including
    {!graph_hash}. Per-field indices, node flags, edge counts and the
    oracle validity map are maintained; inserted values trigger a
    forward-reachability sweep that conservatively invalidates oracle
    rows (deletions only shrink true sets, so existing rows stay sound).
    @raise Invalid_argument before {!freeze}, on an out-of-range node, or
    on an [Enew] that violates the unique-destination invariant. *)

val epoch : t -> int
(** 0 until the first {!apply_edits}; +1 per batch. Engines with
    graph-derived state (e.g. the field-based reachability index) compare
    this against the epoch they solved at. *)

val node_overlay_clean : t -> node -> bool
(** Has [n] never been an endpoint of an applied edit? Reasoning derived
    from the lowered IR (SUPA's value-flow chains) is only valid at nodes
    the overlay never touched; a delete/re-add round-trip leaves the node
    dirty, conservatively. [true] for every node before the first edit. *)

val field_overlay_clean : t -> fld -> bool
(** Has no applied edit ever added or deleted a store edge on [fld]?
    Overlay store edges carry no program point — they may execute between
    any IR store and a later load — so a flow-sensitive kill on a dirty
    field is unsound even when every node along the scanned chains is
    {!node_overlay_clean}. Cumulative, like the node predicate. *)

val graph_hash : t -> int
(** Order-independent XOR hash over the logical edge multiset, maintained
    incrementally across edits. Two graphs with equal hashes almost
    surely have identical edge sets — this is what the persisted summary
    cache header records, so a cache can never be replayed against a
    graph that has drifted. *)

val delta_counts : t -> int * int
(** [(added, deleted)] overlay edge records (both directions counted). *)
