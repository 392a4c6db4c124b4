let conf ?(budget_limit = Conf.default.Conf.budget_limit)
    ?(max_field_repeat = Conf.default.Conf.max_field_repeat)
    ?(max_field_depth = Conf.default.Conf.max_field_depth) () =
  { Conf.budget_limit; max_field_repeat; max_field_depth }

type points_to_fn = ?satisfy:(Query.Target_set.t -> bool) -> Pag.node -> Query.outcome

type engine = {
  name : string;
  points_to : points_to_fn;
  budget : Budget.t;
  stats : Pts_util.Stats.t;
  summary_count : unit -> int;
  invalidate : Pag.node list -> int * int;
      (* drop cached summaries whose derivation touched a dirty node;
         (dropped, retained). Engines without a cross-query summary cache
         answer (0, 0) — their per-query state rebuilds itself (the
         field-based index is epoch-checked internally). *)
}

(* --------------------------- constructors -------------------------- *)

let sb ?(name = "sb") t =
  {
    name;
    points_to = (fun ?satisfy v -> Sb.points_to t ?satisfy v);
    budget = Sb.budget t;
    stats = Sb.stats t;
    summary_count = (fun () -> 0);
    invalidate = (fun _ -> (0, 0));
  }

let dynsum t =
  {
    name = "dynsum";
    points_to = (fun ?satisfy v -> Dynsum.points_to t ?satisfy v);
    budget = Dynsum.budget t;
    stats = Dynsum.stats t;
    summary_count = (fun () -> Dynsum.summary_count t);
    invalidate = (fun dirty -> Dynsum.invalidate t dirty);
  }

let stasum t =
  {
    name = "stasum";
    points_to = (fun ?satisfy v -> Stasum.points_to t ?satisfy v);
    budget = Stasum.budget t;
    stats = Stasum.stats t;
    summary_count = (fun () -> Stasum.summary_count t);
    invalidate = (fun dirty -> Stasum.invalidate t dirty);
  }

let supa t =
  {
    name = "supa";
    points_to = (fun ?satisfy v -> Supa.points_to t ?satisfy v);
    budget = Supa.budget t;
    stats = Supa.stats t;
    summary_count = (fun () -> 0);
    invalidate = (fun _ -> (0, 0));
  }

(* ----------------------------- registry ---------------------------- *)

type builder = ?conf:Conf.t -> ?trace:Trace.sink -> Pag.t -> engine

type spec = { spec_name : string; spec_doc : string; build : builder }

let registry =
  [
    {
      spec_name = "norefine";
      spec_doc = "Sridharan-Bodik, fully field-sensitive from the start, no refinement";
      build = (fun ?conf ?trace pag -> sb ~name:"norefine" (Sb.create ?conf ?trace Sb.No_refine pag));
    };
    {
      spec_name = "refinepts";
      spec_doc = "Sridharan-Bodik with iterative match-edge refinement";
      build = (fun ?conf ?trace pag -> sb ~name:"refinepts" (Sb.create ?conf ?trace Sb.Refine pag));
    };
    {
      spec_name = "dynsum";
      spec_doc = "on-demand dynamic summaries (Algorithm 4, the paper's contribution)";
      build = (fun ?conf ?trace pag -> dynsum (Dynsum.create ?conf ?trace pag));
    };
    {
      spec_name = "stasum";
      spec_doc = "static whole-program summarisation baseline (eager offline phase)";
      build = (fun ?conf ?trace pag -> stasum (Stasum.create ?conf ?trace pag));
    };
    {
      spec_name = "supa";
      spec_doc = "flow-sensitive strong updates via value-flow refinement (Sui-Xue SUPA)";
      build = (fun ?conf ?trace pag -> supa (Supa.create ?conf ?trace pag));
    };
  ]

let names () = List.map (fun s -> s.spec_name) registry

let find name = List.find_opt (fun s -> s.spec_name = name) registry

let create ?conf ?trace name pag =
  match find name with
  | Some s -> s.build ?conf ?trace pag
  | None ->
    invalid_arg
      (Printf.sprintf "unknown engine %S (known: %s)" name (String.concat ", " (names ())))
