(** Pretty-printer from the AST back to MiniJava concrete syntax.

    [program_to_string] emits source that re-parses to a structurally
    equal AST (positions aside) — the round-trip property the test-suite
    checks against the generator's output. Useful for normalising
    generated programs and for dumping fixtures. *)

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string

(** {2 Structural equality modulo positions} *)

val equal_expr : Ast.expr -> Ast.expr -> bool
val equal_program : Ast.program -> Ast.program -> bool
