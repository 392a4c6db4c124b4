type overflow = Abort | Widen

type t = {
  budget_limit : int;
  max_field_repeat : int;
  max_field_depth : int;
  overflow : overflow;
}

let default =
  { budget_limit = 75_000; max_field_repeat = 2; max_field_depth = 64; overflow = Widen }

let make ?(budget_limit = default.budget_limit) ?(max_field_repeat = default.max_field_repeat)
    ?(max_field_depth = default.max_field_depth) ?(overflow = default.overflow) () =
  { budget_limit; max_field_repeat; max_field_depth; overflow }
