module Stats = Pts_util.Stats

type ctx = { cx_pl : Pipeline.t; cx_stats : Stats.t }

type point = {
  pt_node : Pag.node;
  pt_desc : string;
  pt_method : string;
  pt_line : int;
  pt_severity : Diag.severity;
  pt_pred : Query.Target_set.t -> bool;
  pt_bad_sites : int list -> int list;
  pt_message : int list -> string;
}

type checker = {
  ck_name : string;
  ck_doc : string;
  ck_points : ctx -> point list;
  ck_cheap : ctx -> Diag.t list;
}

let make ?(points = fun _ -> []) ?(cheap = fun _ -> []) ~doc name =
  { ck_name = name; ck_doc = doc; ck_points = points; ck_cheap = cheap }

let to_query p = { Client.q_node = p.pt_node; q_desc = p.pt_desc; q_pred = p.pt_pred }

let points_of pl ck = ck.ck_points { cx_pl = pl; cx_stats = Stats.create () }
let queries_of pl ck = List.map to_query (points_of pl ck)

let site_name (prog : Ir.program) site =
  let a = prog.Ir.allocs.(site) in
  if a.Ir.alloc_is_null then Printf.sprintf "o%d:null" site
  else
    Printf.sprintf "o%d:%s (new in %s:%d)" site
      (Types.class_name prog.Ir.ctable a.Ir.alloc_cls)
      prog.Ir.methods.(a.Ir.alloc_meth).Ir.pretty a.Ir.alloc_pos.Loc.line

let sites_blurb (prog : Ir.program) sites =
  let shown = List.filteri (fun i _ -> i < 3) sites in
  let extra = List.length sites - List.length shown in
  String.concat ", " (List.map (site_name prog) shown)
  ^ (if extra > 0 then Printf.sprintf " (+%d more)" extra else "")

type opts = {
  o_engine : string;
  o_conf : Conf.t;
  o_jobs : int;
  o_rounds : int;
  o_base : Dynsum.base option;
}

let default_opts =
  {
    o_engine = "dynsum";
    o_conf = Conf.default;
    o_jobs = 1;
    o_rounds = 1;
    o_base = None;
  }

type report = {
  r_diags : Diag.t list;
  r_points : int;
  r_unique_nodes : int;
  r_dedup_hits : int;
  r_cheap : int;
  r_stats : Stats.t;
  r_seconds : float;
}

let run ?(opts = default_opts) ~checkers pl =
  let stats = Stats.create () in
  let cx = { cx_pl = pl; cx_stats = stats } in
  let pag = pl.Pipeline.pag in
  let (diags, n_points, n_unique, n_cheap), seconds =
    Stats.time (fun () ->
        let per_checker = List.map (fun ck -> (ck, ck.ck_points cx)) checkers in
        let cheap = List.concat_map (fun ck -> ck.ck_cheap cx) checkers in
        let all_points = List.concat_map snd per_checker in
        let n_points = List.length all_points in
        (* Dedup by PAG node: NullDeref et al. emit one point per
           instruction, so the same variable node recurs many times; the
           engine answers each node once and every point reads the
           memoised outcome. *)
        let index : (Pag.node, int) Hashtbl.t = Hashtbl.create 64 in
        let rev_nodes = ref [] in
        List.iter
          (fun p ->
            if not (Hashtbl.mem index p.pt_node) then begin
              Hashtbl.add index p.pt_node (Hashtbl.length index);
              rev_nodes := p.pt_node :: !rev_nodes
            end)
          all_points;
        let nodes = Array.of_list (List.rev !rev_nodes) in
        Stats.add stats "check_points" n_points;
        Stats.add stats "check_unique_nodes" (Array.length nodes);
        Stats.add stats "dedup_hits" (n_points - Array.length nodes);
        let outcomes =
          if Array.length nodes = 0 then [||]
          else begin
            (* No [satisfy]: early exit leaves resolved sets partial and
               engine-dependent; full answers are what make the report
               byte-identical across engines, jobs and pruning. *)
            let qs = Array.map (fun n -> Parsolve.query n) nodes in
            let res =
              Parsolve.run ~conf:opts.o_conf ~jobs:opts.o_jobs ~rounds:opts.o_rounds
                ?base:opts.o_base ~engine:opts.o_engine pag qs
            in
            Stats.merge_into ~into:stats res.Parsolve.stats;
            res.Parsolve.outcomes
          end
        in
        let outcome_of node = outcomes.(Hashtbl.find index node) in
        let wcache : (Pag.node * int, Witness.step list option) Hashtbl.t = Hashtbl.create 32 in
        let explain node site =
          match Hashtbl.find_opt wcache (node, site) with
          | Some r -> r
          | None ->
            let r = Witness.explain ~conf:opts.o_conf pag node ~site in
            (match r with
            | Some _ -> Stats.bump stats "witness_found"
            | None -> Stats.bump stats "witness_missing");
            Hashtbl.add wcache (node, site) r;
            r
        in
        let rec witness_for node = function
          | [] -> []
          | site :: rest -> (
            match explain node site with
            | Some steps -> Witness.render pag steps
            | None -> witness_for node rest)
        in
        let diags =
          List.concat_map
            (fun (ck, points) ->
              List.filter_map
                (fun p ->
                  match outcome_of p.pt_node with
                  | Query.Exceeded ->
                    Some
                      {
                        Diag.d_checker = ck.ck_name;
                        d_severity = Diag.Warning;
                        d_method = p.pt_method;
                        d_line = p.pt_line;
                        d_message = p.pt_desc ^ ": unresolved (budget exceeded)";
                        d_witness = [];
                      }
                  | Query.Resolved ts ->
                    if p.pt_pred ts then None
                    else begin
                      let bad = p.pt_bad_sites (Query.sites ts) in
                      Some
                        {
                          Diag.d_checker = ck.ck_name;
                          d_severity = p.pt_severity;
                          d_method = p.pt_method;
                          d_line = p.pt_line;
                          d_message = p.pt_message bad;
                          d_witness = witness_for p.pt_node bad;
                        }
                    end)
                points)
            per_checker
        in
        let diags = List.sort_uniq Diag.compare (cheap @ diags) in
        (diags, n_points, Array.length nodes, List.length cheap))
  in
  {
    r_diags = diags;
    r_points = n_points;
    r_unique_nodes = n_unique;
    r_dedup_hits = n_points - n_unique;
    r_cheap = n_cheap;
    r_stats = stats;
    r_seconds = seconds;
  }

let max_severity r =
  List.fold_left
    (fun acc d ->
      match acc with
      | None -> Some d.Diag.d_severity
      | Some s -> if Diag.severity_geq d.Diag.d_severity s then Some d.Diag.d_severity else acc)
    None r.r_diags

(* Engine-independent by construction: no stats, no timings, no engine or
   job identifiers — those belong in the metrics blob, not the report. *)
let report_json r =
  let count sev =
    List.length (List.filter (fun d -> d.Diag.d_severity = sev) r.r_diags)
  in
  Trace.Json.Obj
    [
      ("schema", Trace.Json.String "ptsto.check-report/1");
      ( "counts",
        Trace.Json.Obj
          [
            ("error", Trace.Json.Int (count Diag.Error));
            ("warning", Trace.Json.Int (count Diag.Warning));
            ("info", Trace.Json.Int (count Diag.Info));
            ("total", Trace.Json.Int (List.length r.r_diags));
          ] );
      ("findings", Trace.Json.List (List.map Diag.to_json r.r_diags));
    ]
