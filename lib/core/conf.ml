type t = {
  budget_limit : int;
  max_field_repeat : int;
  max_field_depth : int;
}

let default =
  { budget_limit = 75_000; max_field_repeat = 2; max_field_depth = 64 }

let make ?(budget_limit = default.budget_limit) ?(max_field_repeat = default.max_field_repeat)
    ?(max_field_depth = default.max_field_depth) () =
  { budget_limit; max_field_repeat; max_field_depth }
