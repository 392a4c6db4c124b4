module Hstack = Pts_util.Hstack

type step = {
  w_node : Pag.node;
  w_fstack : Hstack.t;
  w_state : Ppta.state;
  w_ctx : Hstack.t;
}

module Key = struct
  type t = int * int * int * int

  let equal (a : t) (b : t) = a = b
  let hash = Hashtbl.hash
end

module Tbl = Hashtbl.Make (Key)

let key (s : step) =
  (s.w_node, Hstack.id s.w_fstack, Ppta.state_to_int s.w_state, Hstack.id s.w_ctx)

(* Worklist successors of [st] given its local summary: one step per
   method-boundary crossing (exit/entry/global edge) reachable from a
   frontier tuple, in the same order Algorithm 4 visits them. Shared
   between [explain] (forward search) and [validate] (chain checking) so
   the two can never disagree about what a legal step is. *)
let successors pag (summary : Ppta.summary) (st : step) =
  let acc = ref [] in
  let go node fstack state ctx =
    acc := { w_node = node; w_fstack = fstack; w_state = state; w_ctx = ctx } :: !acc
  in
  let row side x f = Pag.View.fold pag side x (fun i y () -> f i y) () in
  List.iter
    (fun (x, f1, s1) ->
      let push i y = go y f1 s1 (Kernel.push_ctx pag st.w_ctx i)
      and pop i y = match Kernel.pop_ctx pag st.w_ctx i with Some c' -> go y f1 s1 c' | None -> ()
      and global _ y = go y f1 s1 Hstack.empty in
      match s1 with
      | Ppta.S1 ->
        row Pag.View.exit_in x push;
        row Pag.View.entry_in x pop;
        row Pag.View.global_in x global
      | Ppta.S2 ->
        row Pag.View.exit_out x pop;
        row Pag.View.entry_out x push;
        row Pag.View.global_out x global)
    summary.Ppta.tuples;
  List.rev !acc

(* A re-run of Algorithm 4's worklist that records each state's parent.
   Kept separate from the production loop so the hot path stays lean. *)
let explain ?(conf = Conf.default) pag v ~site =
  let budget = Budget.create ~limit:conf.Conf.budget_limit in
  let cache = Hashtbl.create 256 in
  let summarise u f s =
    if not (Pag.has_local_edges pag u) then Ppta.frontier_only u f s
    else begin
      let k = (u, Hstack.id f, Ppta.state_to_int s) in
      match Hashtbl.find_opt cache k with
      | Some summary -> summary
      | None ->
        let summary = Ppta.compute pag conf budget u f s in
        Hashtbl.add cache k summary;
        summary
    end
  in
  let parents : step option Tbl.t = Tbl.create 256 in
  let work = Queue.create () in
  let found = ref None in
  let propagate parent st =
    if not (Tbl.mem parents (key st)) then begin
      Tbl.add parents (key st) parent;
      Queue.add st work
    end
  in
  propagate None { w_node = v; w_fstack = Hstack.empty; w_state = Ppta.S1; w_ctx = Hstack.empty };
  (try
     while (not (Queue.is_empty work)) && !found = None do
       let st = Queue.pop work in
       Budget.step budget;
       let summary = summarise st.w_node st.w_fstack st.w_state in
       if List.mem site summary.Ppta.objs then found := Some st
       else List.iter (propagate (Some st)) (successors pag summary st)
     done
   with Budget.Out_of_budget -> found := None);
  match !found with
  | None -> None
  | Some last ->
    (* walk parent links back to the query; result is query-first *)
    let rec chain acc st =
      match Tbl.find_opt parents (key st) with
      | Some (Some parent) -> chain (st :: acc) parent
      | Some None | None -> st :: acc
    in
    Some (chain [] last)

(* A chain is well formed iff it starts at the query's initial state,
   every consecutive pair is joined by a legal worklist transition (the
   successor sets above — so adjacent steps share their boundary-edge
   endpoint by construction), and the final step's local summary exposes
   the site. Summaries are recomputed from scratch: validation must not
   trust whatever cache produced the chain. *)
let validate ?(conf = Conf.default) pag ~query ~site steps =
  let budget = Budget.create ~limit:conf.Conf.budget_limit in
  let summarise u f s =
    if not (Pag.has_local_edges pag u) then Ppta.frontier_only u f s
    else Ppta.compute pag conf budget u f s
  in
  let rec walk = function
    | [] -> false
    | [ last ] ->
      List.mem site (summarise last.w_node last.w_fstack last.w_state).Ppta.objs
    | a :: (b :: _ as rest) ->
      let succs = successors pag (summarise a.w_node a.w_fstack a.w_state) a in
      List.exists (fun s -> key s = key b) succs && walk rest
  in
  match steps with
  | [] -> false
  | first :: _ ->
    key first
    = (query, Hstack.id Hstack.empty, Ppta.state_to_int Ppta.S1, Hstack.id Hstack.empty)
    && (try walk steps with Budget.Out_of_budget -> false)

let render pag steps =
  let prog = Pag.program pag in
  List.mapi
    (fun i (s : step) ->
      let fields =
        Hstack.to_list s.w_fstack
        |> List.map (fun sym ->
               let name = (Types.field_info prog.Ir.ctable (Fstack.sym_field sym)).Types.fld_name in
               if Fstack.sym_is_load sym then name else name ^ "!")
      in
      Printf.sprintf "%2d. %-32s %-4s fields=[%s] ctx=[%s]" (i + 1) (Pag.node_name pag s.w_node)
        (match s.w_state with Ppta.S1 -> "S1" | Ppta.S2 -> "S2")
        (String.concat ";" fields)
        (String.concat ";" (List.map string_of_int (Hstack.to_list s.w_ctx))))
    steps
