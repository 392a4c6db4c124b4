(* Shared test support, linked into every test executable in this stanza.

   The QCheck property suites (test_equiv, test_andersen, and the
   cross-frontend tests) all draw small workload configurations from the
   same generator and need one frontend+Andersen run per distinct
   configuration: identical configs recur across properties, and each
   used to recompile the program and re-run the whole-program solver from
   scratch. The config record is plain scalars, so structural equality is
   a sound memo key. *)

module G = Pts_workload.Genprog

(* [name] tags the generated config (it shows up in QCheck
   counterexample printouts) without perturbing the draw. *)
let small_config ~name =
  let open QCheck.Gen in
  let* seed = int_bound 10_000 in
  let* elems = int_range 2 5 in
  let* containers = int_range 1 3 in
  let* boxes = int_range 1 3 in
  let* lists = int_range 1 2 in
  let* factories = int_range 1 2 in
  let* utils = int_range 0 2 in
  let* chain = int_range 2 4 in
  let* apps = int_range 2 5 in
  let* globals = int_range 1 3 in
  let* churn = int_range 0 4 in
  let* null_rate = float_bound_inclusive 0.5 in
  let* bad = float_bound_inclusive 0.4 in
  let* shared = float_bound_inclusive 0.6 in
  let* interact = float_bound_inclusive 0.5 in
  return
    {
      G.name;
      seed;
      n_elem_classes = elems;
      n_containers = containers;
      n_boxes = boxes;
      n_lists = lists;
      n_factories = factories;
      n_utils = utils;
      util_chain = chain;
      n_apps = apps;
      n_globals = globals;
      churn;
      null_rate;
      bad_cast_rate = bad;
      shared_rate = shared;
      interact_rate = interact;
      n_taint_flows = 0;
      n_taint_clean = 0;
      n_taint_kill = 0;
      n_taint_weak = 0;
    }

let config_arbitrary ~name = QCheck.make ~print:G.describe (small_config ~name)

let build_cache : (G.config, Pts_clients.Pipeline.t) Hashtbl.t = Hashtbl.create 16

let build cfg =
  match Hashtbl.find_opt build_cache cfg with
  | Some pl -> pl
  | None ->
    let pl = Pts_clients.Pipeline.of_source (G.generate cfg) in
    Hashtbl.add build_cache cfg pl;
    pl

(* A node's edges on one side through the PAG's one reader, in row
   order, as [(aux, other)]; [row_nodes] drops the aux. *)
let row pag side n = List.rev (Pag.View.fold pag side n (fun a x acc -> (a, x) :: acc) [])

let row_nodes pag side n = List.map snd (row pag side n)

let all_sides =
  Pag.View.
    [ new_in; new_out; assign_in; assign_out; global_in; global_out; load_in; load_out;
      store_in; store_out; entry_in; entry_out; exit_in; exit_out ]
