let mk name seed ~elems ~containers ~boxes ~lists ~factories ~utils ~chain ~apps ~globals ~churn
    ~null ~bad ~shared ~interact =
  {
    Genprog.name;
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
    null_rate = null;
    bad_cast_rate = bad;
    shared_rate = shared;
    interact_rate = interact;
    n_taint_flows = 0;
    n_taint_clean = 0;
    n_taint_kill = 0;
    n_taint_weak = 0;
  }

(* Sizes scale with the paper's relative ordering (soot-c/bloat/jython
   large; jack/avrora/luindex small); the low-locality group gets longer
   utility chains and more registry traffic. *)
let configs =
  [
    mk "jack" 101 ~elems:6 ~containers:3 ~boxes:2 ~lists:2 ~factories:2 ~utils:2 ~chain:3
      ~apps:10 ~globals:3 ~churn:32 ~null:0.3 ~bad:0.2 ~shared:0.25 ~interact:0.2;
    mk "javac" 102 ~elems:8 ~containers:4 ~boxes:3 ~lists:2 ~factories:3 ~utils:2 ~chain:3
      ~apps:16 ~globals:4 ~churn:32 ~null:0.3 ~bad:0.2 ~shared:0.25 ~interact:0.25;
    mk "soot-c" 103 ~elems:12 ~containers:6 ~boxes:4 ~lists:3 ~factories:4 ~utils:3 ~chain:3
      ~apps:34 ~globals:5 ~churn:36 ~null:0.3 ~bad:0.2 ~shared:0.2 ~interact:0.25;
    mk "bloat" 104 ~elems:10 ~containers:5 ~boxes:4 ~lists:3 ~factories:4 ~utils:2 ~chain:3
      ~apps:30 ~globals:4 ~churn:36 ~null:0.35 ~bad:0.25 ~shared:0.2 ~interact:0.3;
    mk "jython" 105 ~elems:9 ~containers:5 ~boxes:3 ~lists:3 ~factories:3 ~utils:2 ~chain:4
      ~apps:24 ~globals:4 ~churn:32 ~null:0.3 ~bad:0.2 ~shared:0.25 ~interact:0.25;
    mk "avrora" 106 ~elems:5 ~containers:2 ~boxes:2 ~lists:2 ~factories:2 ~utils:4 ~chain:6
      ~apps:9 ~globals:6 ~churn:18 ~null:0.35 ~bad:0.2 ~shared:0.5 ~interact:0.3;
    mk "batik" 107 ~elems:8 ~containers:3 ~boxes:3 ~lists:2 ~factories:3 ~utils:4 ~chain:6
      ~apps:18 ~globals:7 ~churn:18 ~null:0.3 ~bad:0.25 ~shared:0.5 ~interact:0.3;
    mk "luindex" 108 ~elems:5 ~containers:2 ~boxes:2 ~lists:2 ~factories:2 ~utils:3 ~chain:6
      ~apps:10 ~globals:6 ~churn:18 ~null:0.35 ~bad:0.2 ~shared:0.5 ~interact:0.25;
    mk "xalan" 109 ~elems:8 ~containers:3 ~boxes:3 ~lists:3 ~factories:3 ~utils:4 ~chain:5
      ~apps:22 ~globals:7 ~churn:18 ~null:0.35 ~bad:0.25 ~shared:0.5 ~interact:0.3;
  ]

let names = List.map (fun c -> c.Genprog.name) configs

let figure45_names = [ "soot-c"; "bloat"; "jython" ]

let largest = "soot-c"

let config name =
  match List.find_opt (fun c -> String.equal c.Genprog.name name) configs with
  | Some c -> c
  | None -> raise Not_found

let scaled name k =
  if k < 1 then invalid_arg "Suite.scaled: factor must be >= 1";
  let c = config name in
  {
    c with
    Genprog.name = Printf.sprintf "%s-x%d" c.Genprog.name k;
    n_apps = c.Genprog.n_apps * k;
    n_elem_classes = c.Genprog.n_elem_classes * ((k + 1) / 2);
  }

(* The seeded-defect variant of a benchmark: same generator state (the
   taint classes draw nothing from the RNG), plus [flows] known
   source->sink flows, [clean] known-clean look-alikes, [kill]
   overwrite-kill shapes and [weak] weak-update controls, all with
   ground-truth labels. *)
let tainted ?(flows = 6) ?(clean = 6) ?(kill = 0) ?(weak = 0) name =
  let c = config name in
  {
    c with
    Genprog.name = Printf.sprintf "%s+taint%d/%d/%d/%d" c.Genprog.name flows clean kill weak;
    n_taint_flows = flows;
    n_taint_clean = clean;
    n_taint_kill = kill;
    n_taint_weak = weak;
  }

let source_cache : (string, string) Hashtbl.t = Hashtbl.create 9

let source name =
  match Hashtbl.find_opt source_cache name with
  | Some s -> s
  | None ->
    let s = Genprog.generate (config name) in
    Hashtbl.add source_cache name s;
    s

let pipeline_cache : (string, Pts_clients.Pipeline.t) Hashtbl.t = Hashtbl.create 9

let pipeline name =
  match Hashtbl.find_opt pipeline_cache name with
  | Some p -> p
  | None ->
    let p = Pts_clients.Pipeline.of_source (source name) in
    Hashtbl.add pipeline_cache name p;
    p

(* -------------------- cross-frontend matched pairs ------------------- *)

let pair_names = Genpair.names

let pair_cache : (string, Genpair.pair) Hashtbl.t = Hashtbl.create 3

let pair name =
  match Hashtbl.find_opt pair_cache name with
  | Some p -> p
  | None ->
    let p = Genpair.get name in
    Hashtbl.add pair_cache name p;
    p

let pair_pipeline_cache : (string * Loc.lang, Pts_clients.Pipeline.t) Hashtbl.t = Hashtbl.create 6

(* One analysed pipeline per pair half, memoised like [pipeline] — the
   equivalence tests hit every engine x jobs combination on the
   same halves, so rebuilding each time would dominate the suite. *)
let pair_pipeline name lang =
  match Hashtbl.find_opt pair_pipeline_cache (name, lang) with
  | Some p -> p
  | None ->
    let pr = pair name in
    let src = match lang with Loc.Mjava -> pr.Genpair.p_mjava | Loc.Minifun -> pr.Genpair.p_minifun in
    let p = Pts_clients.Pipeline.of_source ~lang src in
    Hashtbl.add pair_pipeline_cache (name, lang) p;
    p
