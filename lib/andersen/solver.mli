(** Whole-program Andersen-style (inclusion-based) points-to analysis —
    the reproduction's substitute for Spark (Lhoták & Hendren, CC'03).

    Field-sensitive on (object, field) cells, context-insensitive,
    flow-insensitive. It plays two roles, both taken from the paper's
    setup (§5.1):

    - it constructs the PAG and the call graph {e on the fly}: a method's
      edges enter the graph only once the method is discovered reachable,
      and virtual call sites are resolved against the receiver's growing
      points-to set ("determined using a call graph constructed on the fly
      with Andersen-style analysis", Table 3);
    - its solution is a sound over-approximation of every context-sensitive
      demand answer, which the test-suite uses as an oracle.

    The fixpoint runs with {e difference propagation}: each unit (a PAG
    node, or an (object, field) cell created on demand) keeps a delta row
    of not-yet-propagated sites, and only the delta flows along copy edges.
    Points-to and delta rows are fixed-width rows of
    [ceil (sites / Sys.int_size)] words in two flat [int array] slabs, so
    propagation is a word loop over a scratch copy of the drained delta
    row, and loads, stores and dispatch walk its set bits. There is no
    cycle elimination: a copy cycle's members each propagate the same
    delta once per trip round the cycle, which on this reproduction's
    programs costs less than finding the cycles did (EXPERIMENTS.md,
    "Andersen without cycle collapse").

    [run] returns a frozen PAG with recursion-collapsed call sites and
    the solution installed as the PAG's Andersen oracle
    (see {!Pag.set_oracle}), ready for the demand-driven analyses. The
    returned [t] keeps only the program, the PAG, the call graph, the
    reachable methods and the counters; the solver's working state is
    dropped. *)

type t

val run : ?roots:int list -> Ir.program -> t
(** Solve to fixpoint. [roots] defaults to the program's synthetic entry
    method (or every method when the program has none). *)

val pag : t -> Pag.t
val callgraph : t -> Callgraph.t
val program : t -> Ir.program

val points_to : t -> Pag.node -> Pts_util.Bitset.t
(** Allocation-site ids that may flow to the node: a fresh set built from
    the node's oracle row (see {!Pag.oracle_row}), empty for an id that is
    not a PAG node. *)

val is_reachable : t -> int -> bool
(** Is the method id reachable from the roots? *)

val reachable_methods : t -> int list

val stats : t -> Pts_util.Stats.t
(** Counters, written once when the fixpoint ends: ["propagations"]
    (delta rows drained), ["copy_edges"] (load/store copy edges added),
    ["cells"], ["reachable_methods"], ["cg_edges"], ["recursive_sccs"]. *)
