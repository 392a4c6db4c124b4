(** Per-engine analysis configuration.

    Lives below every engine module so that {!Fstack}, {!Kernel} and the
    engines can all consume it; {!Engine.conf} builds one from optional
    fields. *)

type t = {
  budget_limit : int; (** max PAG edge traversals per query (paper: 75,000) *)
  max_field_repeat : int;
      (** max occurrences of one field in a field stack; a push beyond it
          is cut — the stack-world analogue of Algorithm 1's visited-set
          cycle cut around recursive heap structures (see {!Fstack}) *)
  max_field_depth : int;
      (** hard stack cap, a backstop: a push beyond it k-limits the access
          path, a sound over-approximation (see {!Fstack}) *)
}

val default : t
(** [{ budget_limit = 75_000; max_field_repeat = 2; max_field_depth = 64 }]. *)
