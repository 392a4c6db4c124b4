module Stats = Pts_util.Stats
module Bitset = Pts_util.Bitset

type t = { reach : (int * Bitset.t) list }

(* Forward closure of one source object over the PAG, field-based and
   context-insensitive: assign edges via the per-node local closure
   below, global/entry/exit edges unconditionally (no call-stack
   balancing), and store/load through a field summarily — storing a
   tainted value into any [base.f] taints every load of [f], with no
   base-alias check. Both coarsenings only ever {e add} flows relative
   to the CFL-reachability relation the engines decide, which is what
   makes [reaches = []] a sound reason to skip a sink (DESIGN.md,
   "checker architecture"). *)
let run ?stats pag ~sources =
  let bump k = match stats with Some s -> Stats.bump s k | None -> () in
  (* The local-closure summary mirrors Ppta's per-method summaries: one
     table entry per node, computed once and reused by every source (and
     every sink re-check) that walks through the node. *)
  let cache : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  let closure u =
    match Hashtbl.find_opt cache u with
    | Some c ->
      bump "taint_summary_hits";
      c
    | None ->
      bump "taint_summary_misses";
      let seen = Hashtbl.create 8 in
      let rec go v =
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.replace seen v ();
          Pag.View.fold pag Pag.View.assign_out v (fun _ w () -> go w) ()
        end
      in
      go u;
      let c = List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []) in
      Hashtbl.replace cache u c;
      c
  in
  let reach_for src_site =
    let visited = Bitset.create ~capacity:(Pag.node_count pag) () in
    let fields = Hashtbl.create 8 in
    let work = Queue.create () in
    let push v = if not (Bitset.mem visited v) then Queue.add v work in
    let push_row side x = Pag.View.fold pag side x (fun _ y () -> push y) () in
    push_row Pag.View.new_out (Pag.obj_node pag src_site);
    while not (Queue.is_empty work) do
      let u = Queue.pop work in
      if not (Bitset.mem visited u) then begin
        let cl = closure u in
        List.iter (fun x -> ignore (Bitset.add visited x)) cl;
        List.iter
          (fun x ->
            push_row Pag.View.global_out x;
            push_row Pag.View.entry_out x;
            push_row Pag.View.exit_out x;
            Pag.View.fold pag Pag.View.store_out x
              (fun f _ () ->
                if not (Hashtbl.mem fields f) then begin
                  Hashtbl.replace fields f ();
                  List.iter (fun (_, dst) -> push dst) (Pag.loads_of_field pag f)
                end)
              ())
          cl
      end
    done;
    visited
  in
  { reach = List.map (fun s -> (s, reach_for s)) sources }

let reaches t node =
  List.filter_map (fun (s, b) -> if Bitset.mem b node then Some s else None) t.reach

let any t node = List.exists (fun (_, b) -> Bitset.mem b node) t.reach
