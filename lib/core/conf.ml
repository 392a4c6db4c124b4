type t = {
  budget_limit : int;
  max_field_repeat : int;
  max_field_depth : int;
}

let default =
  { budget_limit = 75_000; max_field_repeat = 2; max_field_depth = 64 }
