(** End-to-end driver: source text (any frontend) to an analysed program.

    Bundles the artefacts every client and benchmark needs: the IR, the
    Andersen solution (call graph + soundness oracle) and the frozen PAG. *)

type t = {
  prog : Ir.program;
  solver : Pts_andersen.Solver.t;
  pag : Pag.t;
  callgraph : Callgraph.t;
}

val of_source : ?lang:Loc.lang -> string -> t
(** Compile ([lang] defaults to MiniJava, with prelude), run the
    on-the-fly Andersen construction, freeze the PAG.
    @raise Frontend.Error on bad source. *)

val of_program : Ir.program -> t

val find_local : t -> meth_pretty:string -> var:string -> Pag.node
(** Look up a variable node by method pretty-name (e.g. ["Main.main"]) and
    source variable name. @raise Not_found. *)

val find_local_any : t -> var:string -> Pag.node
(** Like {!find_local} but searches every method, returning the first
    local with that source name (in method order). Lets cross-frontend
    tests locate a uniquely-named variable without knowing which
    synthesised method (e.g. a MiniFun closure's [apply]) holds it.
    @raise Not_found. *)

val engines :
  ?conf:Conf.t -> ?trace:Trace.sink -> ?with_stasum:bool -> t -> Engine.engine list
(** Fresh [norefine; refinepts; dynsum] engines (plus [stasum] when
    requested — its eager offline phase is costly), built from
    {!Engine.registry} in that order; [trace] is shared by all of them. *)
