module Hstack = Pts_util.Hstack
module Pairset = Pts_util.Pairset

type state = S1 | S2

let state_to_int = function S1 -> 1 | S2 -> 2

let pp_state fmt s = Format.pp_print_string fmt (match s with S1 -> "S1" | S2 -> "S2")

(* ------------------------ RRP context machine ----------------------- *)

let push_ctx pag c i = if Pag.is_recursive_site pag i then c else Hstack.push c i

let pop_ctx pag c i =
  if Pag.is_recursive_site pag i then Some c
  else if Hstack.is_empty c then Some c (* partially balanced: fall off into an unknown caller *)
  else if Hstack.top c = i then Some (Hstack.pop_exn c)
  else None

(* ----------------------- local-walk policies ----------------------- *)

type policy = {
  exact : bool;
  refined : dst:Pag.node -> fld:int -> base:Pag.node -> bool;
  note_match : dst:Pag.node -> fld:int -> base:Pag.node -> unit;
  match_pts : int -> int list;
  match_flows : int -> Pag.node list;
}

let exact_policy =
  {
    exact = true;
    refined = (fun ~dst:_ ~fld:_ ~base:_ -> true);
    note_match = (fun ~dst:_ ~fld:_ ~base:_ -> ());
    match_pts = (fun _ -> []);
    match_flows = (fun _ -> []);
  }

type local_result = {
  lr_objs : int list;
  lr_match_objs : int list;
  lr_frontier : (Pag.node * Hstack.t * state) list;
  lr_jumps : (Pag.node list * Hstack.t * state) list;
}

let frontier_only u f s = { lr_objs = []; lr_match_objs = []; lr_frontier = [ (u, f, s) ]; lr_jumps = [] }

(* (node, field-stack id, state) — the identity of a local query state,
   also the key every summary table in the system uses. *)
module Key = struct
  type t = int * int * int

  let equal ((n1, f1, s1) : t) ((n2, f2, s2) : t) =
    Int.equal n1 n2 && Int.equal f1 f2 && Int.equal s1 s2

  let hash ((n, f, s) : t) = (((n * 31) + f) * 31) + s
end

module Key_tbl = Hashtbl.Make (Key)

(* The same identity packed into one immediate int for the walks' own
   dedup sets: the node in the low [node_bits], one state bit, then the
   field-stack id in every remaining bit of a non-negative int. *)
module State_key = struct
  type layout = { node_bits : int; id_bits : int }

  let layout ~node_count =
    let rec bits b = if 1 lsl b >= node_count then b else bits (b + 1) in
    let node_bits = max 1 (bits 0) in
    { node_bits; id_bits = Sys.int_size - 2 - node_bits }

  let node_bits l = l.node_bits
  let id_bits l = l.id_bits

  let pack l ~node ~state ~id =
    if node < 0 || node lsr l.node_bits <> 0 then
      invalid_arg "Kernel.State_key.pack: node out of range";
    if id < 0 || id lsr l.id_bits <> 0 then
      invalid_arg "Kernel.State_key.pack: field-stack id out of range";
    let sbit = match state with S1 -> 0 | S2 -> 1 in
    node lor (sbit lsl l.node_bits) lor (id lsl (l.node_bits + 1))
end

(* ---------------------------- row walking --------------------------- *)

(* The one loop shape every traversal below uses: the node's base row on
   [side] (probing tombstones only when the side has deletions), then its
   overlay edges in insertion order. [h cx p q aux other] runs once per
   live edge. Every handler is a top-level function taking the
   traversal's context record [cx], so walking a row allocates nothing. *)
let rec iter_added cx p q h = function
  | [] -> ()
  | (a, x) :: rest ->
    h cx p q a x;
    iter_added cx p q h rest

let[@inline] iter_row cx pag side n p q h =
  let s = Pag.View.slab pag side in
  let tomb = Pag.View.tombstoned pag side in
  let labelled = Array.length s.Pag.aux > 0 in
  for k = s.Pag.off.(n) to s.Pag.off.(n + 1) - 1 do
    let a = if labelled then s.Pag.aux.(k) else 0 and x = s.Pag.dst.(k) in
    if not (tomb && Pag.View.is_deleted pag side n a x) then h cx p q a x
  done;
  if Pag.View.overlaid pag then iter_added cx p q h (Pag.View.added pag side n)

(* ------------------------- local-edge walker ------------------------ *)

type walk = {
  w_pag : Pag.t;
  w_conf : Conf.t;
  w_budget : Budget.t;
  w_policy : policy;
  w_layout : State_key.layout;
  (* visited states as (state key, 0); harvested sites as (site, 1) and
     match-edge sites as (site, 2) *)
  w_seen : Pairset.t;
  mutable w_objs : int list;
  mutable w_match_objs : int list;
  mutable w_frontier : (Pag.node * Hstack.t * state) list;
  mutable w_jumps : (Pag.node list * Hstack.t * state) list;
}

let add_obj w site = if Pairset.add w.w_seen site 1 then w.w_objs <- site :: w.w_objs

let add_match_obj w site =
  if Pairset.add w.w_seen site 2 then w.w_match_objs <- site :: w.w_match_objs

let add_jumps w xs f s = match xs with [] -> () | _ -> w.w_jumps <- (xs, f, s) :: w.w_jumps

(* The live nodes of [n]'s row on an unlabelled [side], in row order,
   prepended to [tail]. *)
let row_nodes pag side n tail =
  let s = Pag.View.slab pag side in
  let tomb = Pag.View.tombstoned pag side in
  let acc = ref (List.fold_right (fun (_, x) acc -> x :: acc) (Pag.View.added pag side n) tail) in
  for k = s.Pag.off.(n + 1) - 1 downto s.Pag.off.(n) do
    let x = s.Pag.dst.(k) in
    if not (tomb && Pag.View.is_deleted pag side n 0 x) then acc := x :: !acc
  done;
  !acc

let rec harvest_matches w = function
  | [] -> ()
  | site :: rest ->
    add_match_obj w site;
    harvest_matches w rest

(* Where a match edge's objects surface: the destination of each site's
   allocation, in site order. *)
let rec match_destinations pag = function
  | [] -> []
  | site :: rest ->
    let o = Pag.obj_node pag site in
    row_nodes pag Pag.View.new_out o (match_destinations pag rest)

(* Store-side view of the loads of [g]: bit 0 set when some load is
   refined, bit 1 when some is not (each unrefined one noted as a match). *)
let rec classify_loads policy g acc = function
  | [] -> acc
  | (lb, ldst) :: rest ->
    let acc =
      if policy.refined ~dst:ldst ~fld:g ~base:lb then acc lor 1
      else begin
        policy.note_match ~dst:ldst ~fld:g ~base:lb;
        acc lor 2
      end
    in
    classify_loads policy g acc rest

let rec go w v f s =
  if Pairset.add w.w_seen (State_key.pack w.w_layout ~node:v ~state:s ~id:(Hstack.id f)) 0
  then begin
    Budget.step w.w_budget;
    let pag = w.w_pag in
    match s with
    | S1 ->
      (* v <-new- o: harvest the object, or flip direction to chase an
         alias of v when fields are still pending (a widened stack may
         be either, so it does both) *)
      if Pag.View.has_new_in pag v then begin
        if Fstack.may_be_empty f then iter_row w pag Pag.View.new_in v v f new_in_edge;
        if not (Hstack.is_empty f) then go w v f S2
      end;
      iter_row w pag Pag.View.assign_in v v f assign_in_edge;
      iter_row w pag Pag.View.load_in v v f load_in_edge;
      if Pag.has_global_in pag v then w.w_frontier <- (v, f, S1) :: w.w_frontier
    | S2 ->
      iter_row w pag Pag.View.load_out v v f load_out_edge;
      iter_row w pag Pag.View.assign_out v v f assign_out_edge;
      iter_row w pag Pag.View.store_out v v f store_out_edge;
      iter_row w pag Pag.View.store_in v v f store_in_edge;
      if Pag.has_global_out pag v then w.w_frontier <- (v, f, S2) :: w.w_frontier
  end

and new_in_edge w _ _ _ o = add_obj w (Pag.obj_site w.w_pag o)

and assign_in_edge w _ f _ u = go w u f S1

(* v = u.g backwards: a pending load(g)-bar, awaiting store(g)-bar *)
and load_in_edge w v f g u =
  let policy = w.w_policy in
  if policy.exact || policy.refined ~dst:v ~fld:g ~base:u then begin
    match Fstack.push w.w_conf f (Fstack.load_sym g) with Some f' -> go w u f' S1 | None -> ()
  end
  else begin
    (* field-based match edge: the load observes anything stored to g
       anywhere under the precomputed field-based approximation, with
       context and field stack cleared *)
    policy.note_match ~dst:v ~fld:g ~base:u;
    let sites = policy.match_pts g in
    if Fstack.may_be_empty f then harvest_matches w sites;
    if not (Hstack.is_empty f) then add_jumps w (match_destinations w.w_pag sites) f S2
  end

(* x = v.g forwards: the chased value surfaces out of field g — matches a
   pending store(g) push *)
and load_out_edge w v f g x =
  let policy = w.w_policy in
  if policy.exact || policy.refined ~dst:x ~fld:g ~base:v then
    match Fstack.pop_match f (Fstack.store_sym g) with Some f' -> go w x f' S2 | None -> ()

and assign_out_edge w _ f _ x = go w x f S2

(* b.g = v forwards: the chased value sinks into b.g — push store(g) and
   find aliases of the base b *)
and store_out_edge w _ f g b =
  let policy = w.w_policy in
  if policy.exact then push_store w f g b
  else begin
    let kinds = classify_loads policy g 0 (Pag.loads_of_field w.w_pag g) in
    (* unrefined loads of g: the value escapes into the field-based
       approximation and may surface at any of them *)
    if kinds land 2 <> 0 then add_jumps w (policy.match_flows g) f S2;
    (* refined loads of g: worth the exact alias detour *)
    if kinds land 1 <> 0 then push_store w f g b
  end

and push_store w f g b =
  match Fstack.push w.w_conf f (Fstack.store_sym g) with Some f' -> go w b f' S1 | None -> ()

(* v.g = src backwards: store(g)-bar closing a pending load(g)-bar *)
and store_in_edge w _ f g src =
  match Fstack.pop_match f (Fstack.load_sym g) with Some f' -> go w src f' S1 | None -> ()

(* Each domain keeps one visited set and reuses it walk after walk (most
   walks are a handful of states, so a fresh table would cost more than
   the walk), and likewise one seen set and worklist for [solve]: per-query
   tables would be garbage the major heap has to absorb. A traversal
   started while its storage is in use gets fresh storage. *)
type scratch = {
  sc_seen : Pairset.t;
  mutable sc_busy : bool;
  mutable sc_layout : State_key.layout; (* for [sc_nodes] nodes *)
  mutable sc_nodes : int;
  sc_q_seen : Pairset.t;
  mutable sc_q_node : int array;
  mutable sc_q_f : Hstack.t array;
  mutable sc_q_c : Hstack.t array;
  mutable sc_q_busy : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        sc_seen = Pairset.create 8;
        sc_busy = false;
        sc_layout = State_key.layout ~node_count:0;
        sc_nodes = 0;
        sc_q_seen = Pairset.create 8;
        sc_q_node = Array.make 16 0;
        sc_q_f = Array.make 16 Hstack.empty;
        sc_q_c = Array.make 16 Hstack.empty;
        sc_q_busy = false;
      })

let layout_for sc pag =
  let node_count = Pag.node_count pag in
  if sc.sc_nodes <> node_count then begin
    sc.sc_layout <- State_key.layout ~node_count;
    sc.sc_nodes <- node_count
  end;
  sc.sc_layout

(* Run one walk from [(v0, f0, s0)] and hand the finished walk to
   [finish] while its visited set is still owned. *)
let walk_from finish policy pag conf budget v0 f0 s0 =
  let sc = Domain.DLS.get scratch_key in
  let owned = not sc.sc_busy in
  let seen =
    if owned then begin
      sc.sc_busy <- true;
      Pairset.clear sc.sc_seen;
      sc.sc_seen
    end
    else Pairset.create 8
  in
  let w =
    {
      w_pag = pag;
      w_conf = conf;
      w_budget = budget;
      w_policy = policy;
      w_layout = layout_for sc pag;
      w_seen = seen;
      w_objs = [];
      w_match_objs = [];
      w_frontier = [];
      w_jumps = [];
    }
  in
  match go w v0 f0 s0 with
  | () ->
    let r = finish w in
    if owned then sc.sc_busy <- false;
    r
  | exception e ->
    if owned then sc.sc_busy <- false;
    raise e

let local_result_of_walk w =
  { lr_objs = w.w_objs; lr_match_objs = w.w_match_objs; lr_frontier = w.w_frontier;
    lr_jumps = w.w_jumps }

let local_walk ~policy pag conf budget v0 f0 s0 =
  walk_from local_result_of_walk policy pag conf budget v0 f0 s0

type summary = {
  objs : int list;
  tuples : (Pag.node * Hstack.t * state) list;
  fp : Footprint.t;
}

(* The footprint is read off the visited set, whose (state key, 0) pairs
   hold the node in the key's low bits: nothing is recorded per state. *)
let summary_of_walk w =
  { objs = w.w_objs; tuples = w.w_frontier;
    fp = Footprint.of_pairs w.w_seen ~snd:0 ~mask:((1 lsl State_key.node_bits w.w_layout) - 1) }

let local_summary pag conf budget v0 f0 s0 =
  walk_from summary_of_walk exact_policy pag conf budget v0 f0 s0

(* ------------------------ Algorithm 4 worklist ---------------------- *)

type expander = Pag.node -> Hstack.t -> state -> local_result

type search = {
  q_pag : Pag.t;
  q_budget : Budget.t;
  q_layout : State_key.layout;
  q_seen : Pairset.t; (* (state key, context id) *)
  (* FIFO worklist as parallel arrays; [q_head .. q_tail - 1] pending *)
  mutable q_node : int array; (* node * 2 + state bit *)
  mutable q_f : Hstack.t array;
  mutable q_c : Hstack.t array;
  mutable q_head : int;
  mutable q_tail : int;
}

(* Room for one more entry: slide the pending run down when the popped
   prefix is at least half the array, else double. *)
let make_room q =
  let cap = Array.length q.q_node in
  if q.q_tail = cap then begin
    let n = q.q_tail - q.q_head in
    if 2 * q.q_head >= cap then begin
      Array.blit q.q_node q.q_head q.q_node 0 n;
      Array.blit q.q_f q.q_head q.q_f 0 n;
      Array.blit q.q_c q.q_head q.q_c 0 n
    end
    else begin
      let grow a fill =
        let b = Array.make (2 * cap) fill in
        Array.blit a q.q_head b 0 n;
        b
      in
      q.q_node <- grow q.q_node 0;
      q.q_f <- grow q.q_f Hstack.empty;
      q.q_c <- grow q.q_c Hstack.empty
    end;
    q.q_head <- 0;
    q.q_tail <- n
  end

let propagate q u f s c =
  if Pairset.add q.q_seen (State_key.pack q.q_layout ~node:u ~state:s ~id:(Hstack.id f)) (Hstack.id c)
  then begin
    make_room q;
    let i = q.q_tail in
    q.q_node.(i) <- (2 * u) + (match s with S1 -> 0 | S2 -> 1);
    q.q_f.(i) <- f;
    q.q_c.(i) <- c;
    q.q_tail <- i + 1
  end

(* Global edges out of a frontier state [x], under context [c]. Traversing
   backwards (S1), exit descends into a callee (push) and entry returns to
   a caller (pop); forwards (S2) the roles swap. *)
let exit_in_edge q c f1 i r =
  Budget.step q.q_budget;
  propagate q r f1 S1 (push_ctx q.q_pag c i)

let entry_in_edge q c f1 i a =
  Budget.step q.q_budget;
  match pop_ctx q.q_pag c i with Some c' -> propagate q a f1 S1 c' | None -> ()

let global_in_edge q _ f1 _ u =
  Budget.step q.q_budget;
  propagate q u f1 S1 Hstack.empty

let exit_out_edge q c f1 i d =
  Budget.step q.q_budget;
  match pop_ctx q.q_pag c i with Some c' -> propagate q d f1 S2 c' | None -> ()

let entry_out_edge q c f1 i fo =
  Budget.step q.q_budget;
  propagate q fo f1 S2 (push_ctx q.q_pag c i)

let global_out_edge q _ f1 _ u =
  Budget.step q.q_budget;
  propagate q u f1 S2 Hstack.empty

let rec expand_frontier q c = function
  | [] -> ()
  | (x, f1, s1) :: rest ->
    let pag = q.q_pag in
    (match s1 with
    | S1 ->
      iter_row q pag Pag.View.exit_in x c f1 exit_in_edge;
      iter_row q pag Pag.View.entry_in x c f1 entry_in_edge;
      iter_row q pag Pag.View.global_in x c f1 global_in_edge
    | S2 ->
      iter_row q pag Pag.View.exit_out x c f1 exit_out_edge;
      iter_row q pag Pag.View.entry_out x c f1 entry_out_edge;
      iter_row q pag Pag.View.global_out x c f1 global_out_edge);
    expand_frontier q c rest

(* Match-edge jumps clear the calling context. Groups run newest first
   and a group's nodes last to first: the order the individual jumps
   were discovered in, newest first. *)
let rec jump q = function
  | [] -> ()
  | (xs, f1, s1) :: rest ->
    jump_group q f1 s1 xs;
    jump q rest

and jump_group q f1 s1 = function
  | [] -> ()
  | x :: rest ->
    jump_group q f1 s1 rest;
    Budget.step q.q_budget;
    propagate q x f1 s1 Hstack.empty

let rec harvest results hctx = function
  | [] -> results
  | site :: rest -> harvest (Query.Target_set.add { Query.Target.site; hctx } results) hctx rest

let solve ?stop pag budget (expand : expander) v c0 =
  let sc = Domain.DLS.get scratch_key in
  let owned = not sc.sc_q_busy in
  let q =
    let store seen node f c =
      {
        q_pag = pag;
        q_budget = budget;
        q_layout = layout_for sc pag;
        q_seen = seen;
        q_node = node;
        q_f = f;
        q_c = c;
        q_head = 0;
        q_tail = 0;
      }
    in
    if owned then begin
      sc.sc_q_busy <- true;
      Pairset.clear sc.sc_q_seen;
      store sc.sc_q_seen sc.sc_q_node sc.sc_q_f sc.sc_q_c
    end
    else
      store (Pairset.create 8) (Array.make 16 0) (Array.make 16 Hstack.empty)
        (Array.make 16 Hstack.empty)
  in
  (* hand grown worklist arrays back for the next query, unless they grew
     too large to keep resident *)
  let release () =
    if owned then begin
      if Array.length q.q_node <= 1 lsl 16 then begin
        sc.sc_q_node <- q.q_node;
        sc.sc_q_f <- q.q_f;
        sc.sc_q_c <- q.q_c
      end;
      sc.sc_q_busy <- false
    end
  in
  let results = ref Query.Target_set.empty in
  let stop_now () = match stop with Some pred -> pred !results | None -> false in
  match
    propagate q v Hstack.empty S1 c0;
    let finished = ref (Option.is_some stop && stop_now ()) in
    while q.q_head < q.q_tail && not !finished do
      let i = q.q_head in
      let un = q.q_node.(i) and f = q.q_f.(i) and c = q.q_c.(i) in
      q.q_head <- i + 1;
      Budget.step budget;
      let r = expand (un lsr 1) f (if un land 1 = 0 then S1 else S2) in
      let before = !results in
      (* match-edge harvests are field-based: no heap context *)
      results := harvest (harvest before c r.lr_objs) Hstack.empty r.lr_match_objs;
      if Option.is_some stop && !results != before && stop_now () then finished := true
      else begin
        expand_frontier q c r.lr_frontier;
        jump q r.lr_jumps
      end
    done
  with
  | () ->
    release ();
    !results
  | exception e ->
    release ();
    raise e
