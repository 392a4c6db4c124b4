type node = int
type fld = int
type site = int

type node_kind =
  | Local of { meth : int; var : int }
  | Global of int
  | Obj of int

(* Per-node adjacency, indexed by label and direction. Lists are the
   build-side representation only: [freeze] packs them into int-array CSR
   slabs and drops them, so queries run over dense read-only arrays. *)
type adj = {
  mutable new_in : node list;
  mutable new_out : node list;
  mutable assign_in : node list;
  mutable assign_out : node list;
  mutable global_in : node list;
  mutable global_out : node list;
  mutable load_in : (fld * node) list;
  mutable load_out : (fld * node) list;
  mutable store_in : (fld * node) list;
  mutable store_out : (fld * node) list;
  mutable entry_in : (site * node) list;
  mutable entry_out : (site * node) list;
  mutable exit_in : (site * node) list;
  mutable exit_out : (site * node) list;
}

(* One CSR slab: edges of node [n] occupy [off.(n) .. off.(n+1)-1] in
   [dst] (neighbour ids) and, for labelled slabs, [aux] (field or call
   site, parallel to [dst]; [||] for unlabelled slabs). *)
type slab = { off : int array; dst : int array; aux : int array }

type edge_counts = {
  n_new : int;
  n_assign : int;
  n_load : int;
  n_store : int;
  n_entry : int;
  n_exit : int;
  n_assign_global : int;
}

type t = {
  prog : Ir.program;
  var_base : int array; (* node id of var 0 of each method *)
  global_base : int;
  obj_base : int;
  n_nodes : int;
  mutable adjs : adj array; (* build side; emptied at freeze *)
  dedup : (int * int * int * int, unit) Hashtbl.t; (* (label tag, src, dst, f-or-site) *)
  mutable recursive_sites : bool array;
  mutable counts : edge_counts;
  mutable frozen : bool;
  mutable slabs : slab array; (* the read side, one per side; [||] until freeze *)
  mutable flag_local : Bytes.t; (* per-node flags, valid after freeze *)
  mutable flag_gin : Bytes.t;
  mutable flag_gout : Bytes.t;
  (* per-field edge indices, filled eagerly at freeze so the frozen
     structure is genuinely read-only (safe to share across domains) *)
  loads_by_field : (fld, (node * node) list) Hashtbl.t;
  stores_by_field : (fld, (node * node) list) Hashtbl.t;
  (* Andersen oracle: flat per-node bitset rows over allocation
     sites, [oracle_stride] words per node; stride 0 means no oracle is
     installed and every accessor answers conservatively. *)
  mutable oracle : int array;
  mutable oracle_stride : int;
  (* Rows invalidated by post-freeze edge insertions answer conservatively
     (an insertion can only grow true points-to sets, so the frozen rows
     may under-approximate exactly on the forward-reachable cone of the
     inserted value). Empty = every row still valid. *)
  mutable oracle_valid : Bytes.t;
  (* Post-freeze edit overlay (base slabs stay immutable), edit-batch
     counter, and an order-independent XOR hash of the current edge set. *)
  mutable delta : Delta.t option;
  mutable epoch : int;
  mutable ghash : int;
  (* Allocation sites whose abstract object conflates several runtime
     objects (arrays, null pseudo-allocations, loop allocations): never
     admissible for a strong update. *)
  site_summary : Bytes.t;
  (* Nodes that were an endpoint of any applied edit, cumulatively.
     Flow-sensitive reasoning derived from the IR is only valid at nodes
     the overlay never touched. *)
  mutable overlay_dirty : Bytes.t;
  (* Fields that gained or lost a store edge through the overlay,
     cumulatively. Overlay store edges are flow-insensitive — they could
     execute between any IR store and a later load — so a flow-sensitive
     kill on such a field is unsound even when every scanned node is
     overlay-clean. *)
  overlay_fields : (fld, unit) Hashtbl.t;
}

(* A site is a summary object when one abstract object stands for several
   runtime objects at once: array objects (all elements collapse onto one
   field), null pseudo-allocations, and allocations under a loop (one per
   iteration). Methods lowered without depth metadata report every
   instruction as maximally nested, so their sites are conservatively
   summary too. *)
let compute_site_summary (prog : Ir.program) =
  let n_sites = Array.length prog.Ir.allocs in
  let b = Bytes.make (max 1 n_sites) '\000' in
  Array.iteri
    (fun site (a : Ir.alloc_site) ->
      if a.Ir.alloc_is_null || Types.is_array_class prog.Ir.ctable a.Ir.alloc_cls then
        Bytes.set b site '\001')
    prog.Ir.allocs;
  Array.iter
    (fun (m : Ir.meth) ->
      List.iteri
        (fun i instr ->
          match instr with
          | Ir.Alloc { site; _ } ->
            let loop, _ = Ir.instr_depth m i in
            if loop > 0 && site >= 0 && site < n_sites then Bytes.set b site '\001'
          | _ -> ())
        m.Ir.body)
    prog.Ir.methods;
  b

let fresh_adj () =
  {
    new_in = []; new_out = []; assign_in = []; assign_out = []; global_in = []; global_out = [];
    load_in = []; load_out = []; store_in = []; store_out = []; entry_in = []; entry_out = [];
    exit_in = []; exit_out = [];
  }

let create (prog : Ir.program) =
  let n_methods = Array.length prog.Ir.methods in
  let var_base = Array.make n_methods 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i (m : Ir.meth) ->
      var_base.(i) <- !acc;
      acc := !acc + m.Ir.nvars)
    prog.Ir.methods;
  let global_base = !acc in
  let n_globals = Types.global_count prog.Ir.ctable in
  let obj_base = global_base + n_globals in
  let n_nodes = obj_base + Array.length prog.Ir.allocs in
  {
    prog;
    var_base;
    global_base;
    obj_base;
    n_nodes;
    adjs = Array.init (max n_nodes 1) (fun _ -> fresh_adj ());
    dedup = Hashtbl.create 4096;
    recursive_sites = Array.make (max 1 (Array.length prog.Ir.calls)) false;
    counts =
      { n_new = 0; n_assign = 0; n_load = 0; n_store = 0; n_entry = 0; n_exit = 0;
        n_assign_global = 0 };
    frozen = false;
    slabs = [||];
    flag_local = Bytes.empty;
    flag_gin = Bytes.empty;
    flag_gout = Bytes.empty;
    loads_by_field = Hashtbl.create 64;
    stores_by_field = Hashtbl.create 64;
    oracle = [||];
    oracle_stride = 0;
    oracle_valid = Bytes.empty;
    delta = None;
    epoch = 0;
    ghash = 0;
    site_summary = compute_site_summary prog;
    overlay_dirty = Bytes.empty;
    overlay_fields = Hashtbl.create 8;
  }

let program t = t.prog

let node_count t = t.n_nodes

let local_node t ~meth ~var =
  let m = t.prog.Ir.methods.(meth) in
  if var < 0 || var >= m.Ir.nvars then invalid_arg "Pag.local_node: variable out of range";
  t.var_base.(meth) + var

let global_node t g =
  if g < 0 || g >= t.obj_base - t.global_base then invalid_arg "Pag.global_node";
  t.global_base + g

let obj_node t site =
  if site < 0 || site >= t.n_nodes - t.obj_base then invalid_arg "Pag.obj_node";
  t.obj_base + site

let kind t n =
  if n < 0 || n >= t.n_nodes then invalid_arg "Pag.kind: bad node";
  if n >= t.obj_base then Obj (n - t.obj_base)
  else if n >= t.global_base then Global (n - t.global_base)
  else begin
    (* binary search for the owning method *)
    let lo = ref 0 and hi = ref (Array.length t.var_base - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.var_base.(mid) <= n then lo := mid else hi := mid - 1
    done;
    Local { meth = !lo; var = n - t.var_base.(!lo) }
  end

let is_obj t n = n >= t.obj_base && n < t.n_nodes

let obj_site t n =
  if is_obj t n then n - t.obj_base else invalid_arg "Pag.obj_site: not an object node"

let node_name t n =
  match kind t n with
  | Local { meth; var } ->
    let m = t.prog.Ir.methods.(meth) in
    Printf.sprintf "%s::%s" m.Ir.pretty (Ir.var_name m var)
  | Global g ->
    let gi = Types.global_info t.prog.Ir.ctable g in
    Printf.sprintf "%s.%s$static"
      (Types.class_name t.prog.Ir.ctable gi.Types.glb_class)
      gi.Types.glb_name
  | Obj site -> Ir.alloc_name t.prog site

let check_not_frozen t = if t.frozen then invalid_arg "Pag: graph is frozen"

(* returns true when the edge is fresh *)
let dedup_edge t tag src dst aux =
  let key = (tag, src, dst, aux) in
  if Hashtbl.mem t.dedup key then false
  else begin
    Hashtbl.add t.dedup key ();
    true
  end

let adj t n = t.adjs.(n)

let add_new t ~obj_ ~dst =
  check_not_frozen t;
  if dedup_edge t 0 obj_ dst 0 then begin
    (match (adj t obj_).new_out with
    | [] -> ()
    | existing :: _ when existing <> dst ->
      invalid_arg
        (Printf.sprintf "Pag.add_new: allocation %s already flows to %s" (node_name t obj_)
           (node_name t existing))
    | _ :: _ -> ());
    (adj t dst).new_in <- obj_ :: (adj t dst).new_in;
    (adj t obj_).new_out <- dst :: (adj t obj_).new_out;
    t.counts <- { t.counts with n_new = t.counts.n_new + 1 }
  end

let add_assign t ~src ~dst =
  check_not_frozen t;
  if dedup_edge t 1 src dst 0 then begin
    (adj t dst).assign_in <- src :: (adj t dst).assign_in;
    (adj t src).assign_out <- dst :: (adj t src).assign_out;
    t.counts <- { t.counts with n_assign = t.counts.n_assign + 1 }
  end

let add_assign_global t ~src ~dst =
  check_not_frozen t;
  if dedup_edge t 2 src dst 0 then begin
    (adj t dst).global_in <- src :: (adj t dst).global_in;
    (adj t src).global_out <- dst :: (adj t src).global_out;
    t.counts <- { t.counts with n_assign_global = t.counts.n_assign_global + 1 }
  end

let add_load t ~base ~fld ~dst =
  check_not_frozen t;
  if dedup_edge t 3 base dst fld then begin
    (adj t dst).load_in <- (fld, base) :: (adj t dst).load_in;
    (adj t base).load_out <- (fld, dst) :: (adj t base).load_out;
    t.counts <- { t.counts with n_load = t.counts.n_load + 1 }
  end

let add_store t ~base ~fld ~src =
  check_not_frozen t;
  if dedup_edge t 4 src base fld then begin
    (adj t base).store_in <- (fld, src) :: (adj t base).store_in;
    (adj t src).store_out <- (fld, base) :: (adj t src).store_out;
    t.counts <- { t.counts with n_store = t.counts.n_store + 1 }
  end

let add_entry t ~site ~actual ~formal =
  check_not_frozen t;
  if dedup_edge t 5 actual formal site then begin
    (adj t formal).entry_in <- (site, actual) :: (adj t formal).entry_in;
    (adj t actual).entry_out <- (site, formal) :: (adj t actual).entry_out;
    t.counts <- { t.counts with n_entry = t.counts.n_entry + 1 }
  end

let add_exit t ~site ~retval ~dst =
  check_not_frozen t;
  if dedup_edge t 6 retval dst site then begin
    (adj t dst).exit_in <- (site, retval) :: (adj t dst).exit_in;
    (adj t retval).exit_out <- (site, dst) :: (adj t retval).exit_out;
    t.counts <- { t.counts with n_exit = t.counts.n_exit + 1 }
  end

let set_recursive_site t site =
  if site >= 0 && site < Array.length t.recursive_sites then t.recursive_sites.(site) <- true

let is_recursive_site t site =
  site >= 0 && site < Array.length t.recursive_sites && t.recursive_sites.(site)

(* --------------------------- edge hashing --------------------------- *)

(* Order-independent fingerprint of the logical edge set: XOR of a mixed
   hash of each edge's canonical (tag, a, b, aux) tuple — the same tuples
   the dedup table keys on. XOR is self-inverse, so deleting an edge
   re-applies its hash and a delete/re-add round-trip restores the exact
   fingerprint; it is maintained incrementally by [apply_edits] and
   equals the from-scratch fold at [freeze] by construction. *)

let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x369DEA0F31A53F85 in
  (x lxor (x lsr 31)) land max_int

let edge_hash tag a b aux = mix (mix (mix (mix (tag + 1) + a) + b) + aux)

(* ------------------------- overlay side ids ------------------------- *)

(* One id per packed slab; [Delta] stores overlay edges per side under
   these indices, [freeze] orders the slab array by them and [View.fold]
   matches on them. Unlabelled sides keep aux = 0. *)
let s_new_in = 0
let s_new_out = 1
let s_assign_in = 2
let s_assign_out = 3
let s_global_in = 4
let s_global_out = 5
let s_load_in = 6
let s_load_out = 7
let s_store_in = 8
let s_store_out = 9
let s_entry_in = 10
let s_entry_out = 11
let s_exit_in = 12
let s_exit_out = 13

(* ----------------------------- packing ------------------------------ *)

let pack_nodes n_nodes adjs select =
  let off = Array.make (n_nodes + 1) 0 in
  for i = 0 to n_nodes - 1 do
    off.(i + 1) <- off.(i) + List.length (select adjs.(i))
  done;
  let dst = Array.make off.(n_nodes) 0 in
  for i = 0 to n_nodes - 1 do
    let k = ref off.(i) in
    List.iter
      (fun x ->
        dst.(!k) <- x;
        incr k)
      (select adjs.(i))
  done;
  { off; dst; aux = [||] }

let pack_pairs n_nodes adjs select =
  let off = Array.make (n_nodes + 1) 0 in
  for i = 0 to n_nodes - 1 do
    off.(i + 1) <- off.(i) + List.length (select adjs.(i))
  done;
  let dst = Array.make off.(n_nodes) 0 in
  let aux = Array.make off.(n_nodes) 0 in
  for i = 0 to n_nodes - 1 do
    let k = ref off.(i) in
    List.iter
      (fun (a, x) ->
        aux.(!k) <- a;
        dst.(!k) <- x;
        incr k)
      (select adjs.(i))
  done;
  { off; dst; aux }

(* The slabs by side; [freeze] fills them. *)
let packed t =
  if t.frozen then t.slabs else invalid_arg "Pag.packed: call Pag.freeze first"

let freeze t =
  if not t.frozen then begin
    t.frozen <- true;
    let n = max t.n_nodes 1 in
    t.flag_local <- Bytes.make n '\000';
    t.flag_gin <- Bytes.make n '\000';
    t.flag_gout <- Bytes.make n '\000';
    for i = 0 to t.n_nodes - 1 do
      let a = t.adjs.(i) in
      let local =
        a.new_in <> [] || a.new_out <> [] || a.assign_in <> [] || a.assign_out <> []
        || a.load_in <> [] || a.load_out <> [] || a.store_in <> [] || a.store_out <> []
      in
      if local then Bytes.set t.flag_local i '\001';
      if a.global_in <> [] || a.entry_in <> [] || a.exit_in <> [] then Bytes.set t.flag_gin i '\001';
      if a.global_out <> [] || a.entry_out <> [] || a.exit_out <> [] then
        Bytes.set t.flag_gout i '\001'
    done;
    let nn = t.n_nodes in
    let adjs = t.adjs in
    (* in side order: [slabs.(side)] is the side's CSR slab *)
    t.slabs <-
      [|
        pack_nodes nn adjs (fun a -> a.new_in);
        pack_nodes nn adjs (fun a -> a.new_out);
        pack_nodes nn adjs (fun a -> a.assign_in);
        pack_nodes nn adjs (fun a -> a.assign_out);
        pack_nodes nn adjs (fun a -> a.global_in);
        pack_nodes nn adjs (fun a -> a.global_out);
        pack_pairs nn adjs (fun a -> a.load_in);
        pack_pairs nn adjs (fun a -> a.load_out);
        pack_pairs nn adjs (fun a -> a.store_in);
        pack_pairs nn adjs (fun a -> a.store_out);
        pack_pairs nn adjs (fun a -> a.entry_in);
        pack_pairs nn adjs (fun a -> a.entry_out);
        pack_pairs nn adjs (fun a -> a.exit_in);
        pack_pairs nn adjs (fun a -> a.exit_out);
      |];
    (* per-field indices, eagerly: the frozen graph must need no further
       writes, so concurrent readers never race on a lazy memo *)
    for b = 0 to t.n_nodes - 1 do
      List.iter
        (fun (f, dst) ->
          Hashtbl.replace t.loads_by_field f
            ((b, dst) :: Option.value ~default:[] (Hashtbl.find_opt t.loads_by_field f)))
        adjs.(b).load_out;
      List.iter
        (fun (f, src) ->
          Hashtbl.replace t.stores_by_field f
            ((b, src) :: Option.value ~default:[] (Hashtbl.find_opt t.stores_by_field f)))
        adjs.(b).store_in
    done;
    (* graph hash: fold every logical edge once via its in-side, with the
       same canonical (tag, a, b, aux) tuples the dedup table keys on *)
    let gh = ref 0 in
    for i = 0 to t.n_nodes - 1 do
      let a = adjs.(i) in
      List.iter (fun o -> gh := !gh lxor edge_hash 0 o i 0) a.new_in;
      List.iter (fun src -> gh := !gh lxor edge_hash 1 src i 0) a.assign_in;
      List.iter (fun src -> gh := !gh lxor edge_hash 2 src i 0) a.global_in;
      List.iter (fun (f, base) -> gh := !gh lxor edge_hash 3 base i f) a.load_in;
      List.iter (fun (f, src) -> gh := !gh lxor edge_hash 4 src i f) a.store_in;
      List.iter (fun (site, actual) -> gh := !gh lxor edge_hash 5 actual i site) a.entry_in;
      List.iter (fun (site, retval) -> gh := !gh lxor edge_hash 6 retval i site) a.exit_in
    done;
    t.ghash <- !gh;
    (* construction-only state: the dedup table and the list adjacency are
       dead weight once packed — drop them to cut resident memory *)
    Hashtbl.reset t.dedup;
    t.adjs <- [||]
  end

let scan_field t f ~index ~select =
  if t.frozen then Option.value ~default:[] (Hashtbl.find_opt index f)
  else begin
    let acc = ref [] in
    Array.iteri
      (fun n a -> List.iter (fun (g, other) -> if g = f then acc := (n, other) :: !acc) (select a))
      t.adjs;
    !acc
  end

let loads_of_field t f = scan_field t f ~index:t.loads_by_field ~select:(fun a -> a.load_out)

let stores_of_field t f = scan_field t f ~index:t.stores_by_field ~select:(fun a -> a.store_in)

let require_frozen t name = if not t.frozen then invalid_arg (name ^ ": call Pag.freeze first")

let has_local_edges t n =
  require_frozen t "Pag.has_local_edges";
  Bytes.get t.flag_local n = '\001'

let has_global_in t n =
  require_frozen t "Pag.has_global_in";
  Bytes.get t.flag_gin n = '\001'

let has_global_out t n =
  require_frozen t "Pag.has_global_out";
  Bytes.get t.flag_gout n = '\001'

(* ------------------------- unified view ----------------------------- *)

let rec fold_nodes f l acc = match l with [] -> acc | x :: r -> fold_nodes f r (f 0 x acc)

let rec fold_pairs f l acc = match l with [] -> acc | (a, x) :: r -> fold_pairs f r (f a x acc)

(* The row-level view the engines traverse: a node's base-slab row (whose
   edges need the tombstone probe only when the side has deletions), then
   its overlay edges in insertion order. The kernel walks these with plain
   loops, so nothing on the traversal path allocates; [fold] is the one
   composed reader for everything else, and the only one that also reads
   the build-side lists before [freeze]. *)
module View = struct
  type side = int

  let new_in = s_new_in
  let new_out = s_new_out
  let assign_in = s_assign_in
  let assign_out = s_assign_out
  let global_in = s_global_in
  let global_out = s_global_out
  let load_in = s_load_in
  let load_out = s_load_out
  let store_in = s_store_in
  let store_out = s_store_out
  let entry_in = s_entry_in
  let entry_out = s_entry_out
  let exit_in = s_exit_in
  let exit_out = s_exit_out

  let slab t side = (packed t).(side)

  let overlaid t = Option.is_some t.delta

  let tombstoned t side =
    match t.delta with Some d -> Delta.has_deletions d side | None -> false

  let is_deleted t side n aux other =
    match t.delta with Some d -> Delta.is_deleted d side n aux other | None -> false

  let added t side n = match t.delta with Some d -> Delta.added_at d side n | None -> []

  let fold t side n f acc =
    if not t.frozen then begin
      let a = t.adjs.(n) in
      match side with
      | 0 -> fold_nodes f a.new_in acc
      | 1 -> fold_nodes f a.new_out acc
      | 2 -> fold_nodes f a.assign_in acc
      | 3 -> fold_nodes f a.assign_out acc
      | 4 -> fold_nodes f a.global_in acc
      | 5 -> fold_nodes f a.global_out acc
      | 6 -> fold_pairs f a.load_in acc
      | 7 -> fold_pairs f a.load_out acc
      | 8 -> fold_pairs f a.store_in acc
      | 9 -> fold_pairs f a.store_out acc
      | 10 -> fold_pairs f a.entry_in acc
      | 11 -> fold_pairs f a.entry_out acc
      | 12 -> fold_pairs f a.exit_in acc
      | _ -> fold_pairs f a.exit_out acc
    end
    else begin
      let s = t.slabs.(side) in
      let labelled = Array.length s.aux > 0 and tomb = tombstoned t side in
      let acc = ref acc in
      for k = s.off.(n) to s.off.(n + 1) - 1 do
        let a = if labelled then s.aux.(k) else 0 and x = s.dst.(k) in
        if not (tomb && is_deleted t side n a x) then acc := f a x !acc
      done;
      fold_pairs f (added t side n) !acc
    end

  let has_new_in t n =
    let s = (packed t).(s_new_in) in
    match t.delta with
    | None -> s.off.(n + 1) > s.off.(n)
    | Some d ->
      Delta.added_at d s_new_in n <> []
      ||
      let hi = s.off.(n + 1) in
      let rec live k = k < hi && ((not (Delta.is_deleted d s_new_in n 0 s.dst.(k))) || live (k + 1)) in
      live s.off.(n)
end

(* ------------------------- Andersen oracle -------------------------- *)

let oracle_word_bits = Sys.int_size

let oracle_row_words t = max 1 ((t.n_nodes - t.obj_base + oracle_word_bits - 1) / oracle_word_bits)

let set_oracle t ~stride slab =
  if t.oracle_stride <> 0 then invalid_arg "Pag.set_oracle: oracle already installed";
  if stride <> oracle_row_words t then invalid_arg "Pag.set_oracle: wrong stride";
  let n_sites = t.n_nodes - t.obj_base in
  if Array.length slab <> t.n_nodes * stride then invalid_arg "Pag.set_oracle: wrong length";
  (* only the last word of a row can hold bits past the last site *)
  let tail = n_sites - ((stride - 1) * oracle_word_bits) in
  let beyond = if tail >= oracle_word_bits then 0 else -1 lsl tail in
  for n = 0 to t.n_nodes - 1 do
    if slab.((n * stride) + stride - 1) land beyond <> 0 then
      invalid_arg "Pag.set_oracle: site out of range"
  done;
  t.oracle <- slab;
  t.oracle_stride <- stride

let oracle_row t n =
  let s = t.oracle_stride in
  let row = Pts_util.Bitset.create ~capacity:(s * oracle_word_bits) () in
  for i = 0 to s - 1 do
    let w = ref t.oracle.((n * s) + i) in
    while !w <> 0 do
      ignore (Pts_util.Bitset.add row ((i * oracle_word_bits) + Pts_util.Bitset.lowest_bit !w));
      w := !w land (!w - 1)
    done
  done;
  row

let has_oracle t = t.oracle_stride > 0

(* Rows invalidated by edits (see [apply_edits]) answer conservatively:
   membership yes, emptiness/disjointness no, singleton unknown — exactly
   the no-oracle fallbacks, per row. *)
let oracle_row_valid t n =
  Bytes.length t.oracle_valid = 0 || Bytes.get t.oracle_valid n = '\001'

let oracle_row_empty t n =
  let s = t.oracle_stride in
  s > 0 && oracle_row_valid t n
  &&
  let base = n * s in
  let rec go i = i >= s || (t.oracle.(base + i) = 0 && go (i + 1)) in
  go 0

let oracle_mem t n site =
  let s = t.oracle_stride in
  s = 0
  || (not (oracle_row_valid t n))
  || t.oracle.((n * s) + (site / oracle_word_bits)) land (1 lsl (site mod oracle_word_bits)) <> 0

let oracle_disjoint t m n =
  let s = t.oracle_stride in
  s > 0
  && oracle_row_valid t m && oracle_row_valid t n
  &&
  let bm = m * s and bn = n * s in
  let rec go i = i >= s || (t.oracle.(bm + i) land t.oracle.(bn + i) = 0 && go (i + 1)) in
  go 0

let site_is_summary t site =
  site < 0 || site >= Bytes.length t.site_summary || Bytes.get t.site_summary site = '\001'

let oracle_singleton t n =
  let s = t.oracle_stride in
  if s = 0 || not (oracle_row_valid t n) then None
  else begin
    let base = n * s in
    let found = ref (-1) in
    try
      for i = 0 to s - 1 do
        let w = t.oracle.(base + i) in
        if w <> 0 then begin
          if !found >= 0 || w land (w - 1) <> 0 then raise Exit;
          found := (i * oracle_word_bits) + Pts_util.Bitset.lowest_bit w
        end
      done;
      (* A summary object is one abstract object for many runtime objects:
         a row of exactly one such site still gives no strong-update
         licence, so it is not reported as a singleton. *)
      if !found >= 0 && not (site_is_summary t !found) then Some !found else None
    with Exit -> None
  end

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let oracle_row_size t n =
  let s = t.oracle_stride in
  if s = 0 then 0
  else begin
    let base = n * s in
    let acc = ref 0 in
    for i = 0 to s - 1 do
      acc := !acc + popcount t.oracle.(base + i)
    done;
    !acc
  end

let edge_counts t = t.counts

let locality t =
  let c = t.counts in
  let local = c.n_new + c.n_assign + c.n_load + c.n_store in
  let global = c.n_entry + c.n_exit + c.n_assign_global in
  if local + global = 0 then 1.0 else float_of_int local /. float_of_int (local + global)

let touched_counts t =
  let objs = ref 0 and locals = ref 0 and globals = ref 0 in
  let tally i touched =
    if touched then
      if i >= t.obj_base then incr objs else if i >= t.global_base then incr globals else incr locals
  in
  for i = 0 to t.n_nodes - 1 do
    tally i
      (if t.frozen then Array.exists (fun s -> s.off.(i + 1) > s.off.(i)) t.slabs
       else
         let a = t.adjs.(i) in
         a.new_in <> [] || a.new_out <> [] || a.assign_in <> [] || a.assign_out <> []
         || a.global_in <> [] || a.global_out <> [] || a.load_in <> [] || a.load_out <> []
         || a.store_in <> [] || a.store_out <> [] || a.entry_in <> [] || a.entry_out <> []
         || a.exit_in <> [] || a.exit_out <> [])
  done;
  (!objs, !locals, !globals)

(* --------------------------- post-freeze edits ----------------------- *)

type ekind =
  | Enew of { obj_ : node; dst : node }
  | Eassign of { src : node; dst : node }
  | Eglobal of { src : node; dst : node }
  | Eload of { base : node; fld : fld; dst : node }
  | Estore of { base : node; fld : fld; src : node }
  | Eentry of { site : site; actual : node; formal : node }
  | Eexit of { site : site; retval : node; dst : node }

type edit = Eadd of ekind | Edel of ekind

type commit = {
  c_epoch : int;
  c_dirty : node list;
  c_inserted : int;
  c_deleted : int;
  c_oracle_invalidated : int;
}

let epoch t = t.epoch

let node_overlay_clean t n =
  Bytes.length t.overlay_dirty = 0 || Bytes.get t.overlay_dirty n = '\000'

let field_overlay_clean t fld = not (Hashtbl.mem t.overlay_fields fld)

let graph_hash t = t.ghash

let delta_counts t =
  match t.delta with None -> (0, 0) | Some d -> (Delta.added_count d, Delta.deleted_count d)

(* Canonical decomposition of a logical edge: the dedup/hash tuple plus
   where each direction lives in the overlay. *)
type ecanon = {
  e_tag : int;
  e_a : int;
  e_b : int;
  e_aux : int;
  e_in_side : int;
  e_in_node : int;
  e_in_other : int;
  e_out_side : int;
  e_out_node : int;
  e_out_other : int;
}

let canon = function
  | Enew { obj_; dst } ->
    { e_tag = 0; e_a = obj_; e_b = dst; e_aux = 0; e_in_side = s_new_in; e_in_node = dst;
      e_in_other = obj_; e_out_side = s_new_out; e_out_node = obj_; e_out_other = dst }
  | Eassign { src; dst } ->
    { e_tag = 1; e_a = src; e_b = dst; e_aux = 0; e_in_side = s_assign_in; e_in_node = dst;
      e_in_other = src; e_out_side = s_assign_out; e_out_node = src; e_out_other = dst }
  | Eglobal { src; dst } ->
    { e_tag = 2; e_a = src; e_b = dst; e_aux = 0; e_in_side = s_global_in; e_in_node = dst;
      e_in_other = src; e_out_side = s_global_out; e_out_node = src; e_out_other = dst }
  | Eload { base; fld; dst } ->
    { e_tag = 3; e_a = base; e_b = dst; e_aux = fld; e_in_side = s_load_in; e_in_node = dst;
      e_in_other = base; e_out_side = s_load_out; e_out_node = base; e_out_other = dst }
  | Estore { base; fld; src } ->
    { e_tag = 4; e_a = src; e_b = base; e_aux = fld; e_in_side = s_store_in; e_in_node = base;
      e_in_other = src; e_out_side = s_store_out; e_out_node = src; e_out_other = base }
  | Eentry { site; actual; formal } ->
    { e_tag = 5; e_a = actual; e_b = formal; e_aux = site; e_in_side = s_entry_in;
      e_in_node = formal; e_in_other = actual; e_out_side = s_entry_out; e_out_node = actual;
      e_out_other = formal }
  | Eexit { site; retval; dst } ->
    { e_tag = 6; e_a = retval; e_b = dst; e_aux = site; e_in_side = s_exit_in; e_in_node = dst;
      e_in_other = retval; e_out_side = s_exit_out; e_out_node = retval; e_out_other = dst }

(* Does the edge exist in the current view (base minus tombstones plus
   overlay)? Probes the in-side only — the two directions are kept in
   lock-step by construction. *)
let view_mem t c =
  let in_base =
    let slab = (packed t).(c.e_in_side) in
    let hi = slab.off.(c.e_in_node + 1) - 1 in
    let has_aux = Array.length slab.aux > 0 in
    let rec scan k =
      k <= hi
      && ((slab.dst.(k) = c.e_in_other && ((not has_aux) || slab.aux.(k) = c.e_aux)) || scan (k + 1))
    in
    scan slab.off.(c.e_in_node)
  in
  match t.delta with
  | None -> in_base
  | Some d ->
    if in_base then not (Delta.is_deleted d c.e_in_side c.e_in_node c.e_aux c.e_in_other)
    else Delta.is_added d c.e_in_side c.e_in_node c.e_aux c.e_in_other

let bump_count t tag d =
  let c = t.counts in
  t.counts <-
    (match tag with
    | 0 -> { c with n_new = c.n_new + d }
    | 1 -> { c with n_assign = c.n_assign + d }
    | 2 -> { c with n_assign_global = c.n_assign_global + d }
    | 3 -> { c with n_load = c.n_load + d }
    | 4 -> { c with n_store = c.n_store + d }
    | 5 -> { c with n_entry = c.n_entry + d }
    | _ -> { c with n_exit = c.n_exit + d })

(* Per-field index maintenance. Appends keep the frozen prefix stable, so
   a rebuilt graph replaying the same edit history reproduces the exact
   same index order (traversal order must be a pure function of the
   history for incremental-vs-rebuild byte-equality). *)
let index_add idx f pair =
  Hashtbl.replace idx f (Option.value ~default:[] (Hashtbl.find_opt idx f) @ [ pair ])

let index_remove idx f pair =
  match Hashtbl.find_opt idx f with
  | None -> ()
  | Some l ->
    let rec drop = function [] -> [] | x :: r when x = pair -> r | x :: r -> x :: drop r in
    Hashtbl.replace idx f (drop l)

let recompute_flags t n =
  let set flags sides =
    let any = List.exists (fun side -> View.fold t side n (fun _ _ _ -> true) false) sides in
    Bytes.set flags n (if any then '\001' else '\000')
  in
  set t.flag_local
    [ s_new_in; s_new_out; s_assign_in; s_assign_out; s_load_in; s_load_out; s_store_in; s_store_out ];
  set t.flag_gin [ s_global_in; s_entry_in; s_exit_in ];
  set t.flag_gout [ s_global_out; s_entry_out; s_exit_out ]

(* Insertions can grow true points-to sets, so the frozen Andersen rows
   may under-approximate — unsound to refute with — on every node forward-
   reachable from the insertion's value destination in the field-based
   flow graph (copies, calls/returns without context, store(f) jumping to
   every load of f: a superset of Andersen's propagation paths). Those
   rows are flipped to conservative. Deletions only shrink true sets, so
   existing rows stay over-approximate and remain sound untouched. *)
let invalidate_oracle t seeds =
  if t.oracle_stride = 0 then 0
  else begin
    if Bytes.length t.oracle_valid = 0 then t.oracle_valid <- Bytes.make (max 1 t.n_nodes) '\001';
    let visited = Bytes.make (max 1 t.n_nodes) '\000' in
    let q = Queue.create () in
    let push n =
      if n >= 0 && n < t.n_nodes && Bytes.get visited n = '\000' then begin
        Bytes.set visited n '\001';
        Queue.add n q
      end
    in
    List.iter push seeds;
    let fresh = ref 0 in
    while not (Queue.is_empty q) do
      let n = Queue.pop q in
      if Bytes.get t.oracle_valid n = '\001' then begin
        Bytes.set t.oracle_valid n '\000';
        incr fresh
      end;
      List.iter
        (fun side -> View.fold t side n (fun _ m () -> push m) ())
        [ s_assign_out; s_global_out; s_entry_out; s_exit_out ];
      View.fold t s_store_out n
        (fun f _ () -> List.iter (fun (_, dst) -> push dst) (loads_of_field t f))
        ()
    done;
    !fresh
  end

let apply_edits t edits =
  require_frozen t "Pag.apply_edits";
  let d =
    match t.delta with
    | Some d -> d
    | None ->
      let d = Delta.create () in
      t.delta <- Some d;
      d
  in
  let dirty = Hashtbl.create 16 in
  let mark n = Hashtbl.replace dirty n () in
  let inserted = ref 0 and deleted = ref 0 in
  let seeds = ref [] and store_fields = ref [] in
  let check_node n =
    if n < 0 || n >= t.n_nodes then invalid_arg "Pag.apply_edits: node out of range"
  in
  List.iter
    (fun ed ->
      let k = match ed with Eadd k | Edel k -> k in
      let c = canon k in
      check_node c.e_a;
      check_node c.e_b;
      match ed with
      | Eadd _ ->
        if not (view_mem t c) then begin
          (match k with
          | Enew { obj_; dst = _ } ->
            if not (is_obj t obj_) then
              invalid_arg "Pag.apply_edits: Enew source is not an object node";
            (match View.fold t s_new_out obj_ (fun _ x _ -> Some x) None with
            | None -> ()
            | Some existing ->
              invalid_arg
                (Printf.sprintf "Pag.apply_edits: allocation %s already flows to %s"
                   (node_name t obj_) (node_name t existing)))
          | _ -> ());
          if Delta.is_deleted d c.e_in_side c.e_in_node c.e_aux c.e_in_other then begin
            Delta.unmark_deleted d c.e_in_side c.e_in_node c.e_aux c.e_in_other;
            Delta.unmark_deleted d c.e_out_side c.e_out_node c.e_aux c.e_out_other
          end
          else begin
            Delta.add d c.e_in_side c.e_in_node c.e_aux c.e_in_other;
            Delta.add d c.e_out_side c.e_out_node c.e_aux c.e_out_other
          end;
          t.ghash <- t.ghash lxor edge_hash c.e_tag c.e_a c.e_b c.e_aux;
          bump_count t c.e_tag 1;
          incr inserted;
          mark c.e_a;
          mark c.e_b;
          (match k with
          | Eload { base; fld; dst } -> index_add t.loads_by_field fld (base, dst)
          | Estore { base; fld; src } ->
            index_add t.stores_by_field fld (base, src);
            Hashtbl.replace t.overlay_fields fld ()
          | _ -> ());
          (* oracle seed: where the inserted value first surfaces *)
          (match k with
          | Enew { dst; _ } | Eassign { dst; _ } | Eglobal { dst; _ } | Eload { dst; _ }
          | Eexit { dst; _ } ->
            seeds := dst :: !seeds
          | Eentry { formal; _ } -> seeds := formal :: !seeds
          | Estore { fld; _ } -> store_fields := fld :: !store_fields)
        end
      | Edel _ ->
        if view_mem t c then begin
          if Delta.is_added d c.e_in_side c.e_in_node c.e_aux c.e_in_other then begin
            Delta.remove_added d c.e_in_side c.e_in_node c.e_aux c.e_in_other;
            Delta.remove_added d c.e_out_side c.e_out_node c.e_aux c.e_out_other
          end
          else begin
            Delta.mark_deleted d c.e_in_side c.e_in_node c.e_aux c.e_in_other;
            Delta.mark_deleted d c.e_out_side c.e_out_node c.e_aux c.e_out_other
          end;
          t.ghash <- t.ghash lxor edge_hash c.e_tag c.e_a c.e_b c.e_aux;
          bump_count t c.e_tag (-1);
          incr deleted;
          mark c.e_a;
          mark c.e_b;
          match k with
          | Eload { base; fld; dst } -> index_remove t.loads_by_field fld (base, dst)
          | Estore { base; fld; src } ->
            index_remove t.stores_by_field fld (base, src);
            Hashtbl.replace t.overlay_fields fld ()
          | _ -> ()
        end)
    edits;
  Hashtbl.iter (fun n () -> recompute_flags t n) dirty;
  if Hashtbl.length dirty > 0 && Bytes.length t.overlay_dirty = 0 then
    t.overlay_dirty <- Bytes.make (max 1 t.n_nodes) '\000';
  Hashtbl.iter (fun n () -> Bytes.set t.overlay_dirty n '\001') dirty;
  (* a store's value surfaces at every load of its field, under the same
     field-based approximation the invalidation walk itself uses *)
  let seeds =
    !seeds
    @ List.concat_map
        (fun f -> List.map snd (loads_of_field t f))
        (List.sort_uniq compare !store_fields)
  in
  let inv = if !inserted > 0 then invalidate_oracle t seeds else 0 in
  t.epoch <- t.epoch + 1;
  let dl = List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) dirty []) in
  {
    c_epoch = t.epoch;
    c_dirty = dl;
    c_inserted = !inserted;
    c_deleted = !deleted;
    c_oracle_invalidated = inv;
  }
