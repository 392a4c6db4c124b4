(** Frontend driver: source text to {!Ir.program}, for any surface language.

    This facade is the only place the rest of the system selects a
    frontend: everything downstream of {!compile} consumes the
    frontend-agnostic IR ({!Ir}, {!Types}, {!Loc}, {!Ityp}) and never sees
    a surface syntax module. All frontend failure modes are funnelled into
    a single {!Error} exception so callers need one handler. *)

exception Error of string
(** Message already includes the source position. *)

val compile : ?lang:Loc.lang -> string -> Ir.program
(** Compile one compilation unit; [lang] defaults to {!Loc.Mjava} (which
    prepends the MiniJava prelude).
    @raise Error on any lexical, syntactic or semantic error. *)

val compile_file : ?lang:Loc.lang -> string -> Ir.program
(** Read a file and {!compile} it; without [lang] the language is inferred
    from the extension ({!lang_of_path}). @raise Error also on IO failure. *)

val lang_of_path : string -> Loc.lang
(** [.mf]/[.minifun] files are MiniFun; anything else is MiniJava. *)

val comments : ?lang:Loc.lang -> string -> (string * Loc.pos) list
(** All comment texts with the position of their opening delimiter, in
    source order, via the selected language's lexer. Never raises. *)

val annotations : ?lang:Loc.lang -> string -> (string * Loc.pos) list
(** Annotation comments: every comment whose text contains ['@'], trimmed,
    with the position of its opening delimiter, in source order. The
    MiniJava prelude is parsed separately, so these positions are the
    user's own line numbers — the same lines {!Ir} instruction positions
    carry. Never raises. *)
