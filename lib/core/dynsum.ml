module Hstack = Pts_util.Hstack
module Stats = Pts_util.Stats

module Cache_key = Kernel.Key
module Cache = Kernel.Key_tbl

(* Shared base tier: merged summaries of earlier batches (in the serve
   daemon, earlier requests), keyed structurally
   ((node, stack symbols, state)) so the table crosses domains without
   hash-cons rebasing. Workers never write the table — the main domain
   grows and evicts between batches, after all workers have joined — so
   plain Hashtbl reads from many domains are safe. The two per-entry
   mutables that workers do touch are race-tolerant by design: hit/miss
   tallies are [Atomic.t], and the clock bit is a plain bool whose only
   writes are [true] (a stale read merely demotes an entry one eviction
   lap early). *)
type base_key = int * int list * int

(* The polymorphic hash only samples a prefix of the structure, and deep
   field stacks share prefixes — under it, a large tier degenerates into
   a few long buckets and every probe's cost grows with residency. Fold
   the whole symbol list instead. *)
module Base_tbl = Hashtbl.Make (struct
  type t = base_key

  let equal (a : base_key) b = a = b

  let hash ((node, syms, state) : base_key) =
    let mix h x = (h * 0x01000193) lxor x in
    let h = List.fold_left mix (mix (mix 0x811c9dc5 node) state) syms in
    h land max_int
end)

type base_entry = {
  be_objs : int list;
  be_tuples : (int * int list * int) list;
  be_fp : Footprint.t; (* derivation footprint, for targeted invalidation *)
  mutable be_ref : bool; (* second-chance clock bit, set on every hit *)
  (* One-slot memo of the rematerialised summary, tagged with the domain
     that built it. Hstack ids are domain-local, so a consumer only
     reuses a memo its own domain produced; the field is a single
     immutable-tuple write, so concurrent overwrites from other domains
     are benign (last publisher wins, every reader sees a consistent
     pair). Without this, a long-lived daemon re-interns every tuple's
     field stack on every request that re-probes a hot entry. *)
  mutable be_mat : (int * Ppta.summary) option;
}

type base = {
  b_tbl : base_entry Base_tbl.t;
  b_cap : int; (* max entries; 0 = unbounded *)
  b_ring : base_key Queue.t; (* clock hand: insertion order, with second chances *)
  b_hits : int Atomic.t;
  b_misses : int Atomic.t;
  b_evictions : int Atomic.t;
}

type t = {
  pag : Pag.t;
  conf : Conf.t;
  budget : Budget.t;
  stats : Stats.t;
  sink : Trace.sink;
  cache : Ppta.summary Cache.t;
  key_stacks : Pts_util.Hstack.t Cache.t; (* key -> its field stack, for persistence *)
  mutable base : base option; (* shared lower tier; overlay = cache above it *)
}

let name = "dynsum"

let create ?(conf = Conf.default) ?(trace = Trace.null) pag =
  let stats = Stats.create () in
  {
    pag;
    conf;
    budget = Budget.create ~limit:conf.Conf.budget_limit;
    stats;
    sink = Trace.tee (Trace.counting stats) trace;
    cache = Cache.create 4096;
    key_stacks = Cache.create 4096;
    base = None;
  }

let summary_count t = Cache.length t.cache

let new_summary_count t = Cache.length t.key_stacks

let summary_points t =
  let pts = Hashtbl.create 256 in
  Cache.iter (fun (n, _f, s) _ -> Hashtbl.replace pts (n, s) ()) t.cache;
  Hashtbl.length pts

let clear_cache t =
  Cache.reset t.cache;
  Cache.reset t.key_stacks

let budget t = t.budget
let stats t = t.stats

(* ------------------------- cache persistence ------------------------ *)

(* Structural image of one cache entry: hash-cons ids are process-local,
   so stacks travel as symbol lists. The trailing field is the derivation
   footprint — the PAG nodes the PPTA run visited — which targeted
   invalidation intersects against the dirty set of an edit burst. In
   memory it is the summary's own {!Footprint.t}; the file spells it out
   as the ascending node list ([file_image]). *)
type entry_image =
  int * int list * int * int list * (int * int list * int) list * Footprint.t

type file_image = int * int list * int * int list * (int * int list * int) list * int list

let magic = "ptsto-dynsum-cache-v2"

let fingerprint pag =
  let c = Pag.edge_counts pag in
  ( Pag.node_count pag,
    c.Pag.n_new,
    c.Pag.n_assign,
    c.Pag.n_load,
    c.Pag.n_store,
    c.Pag.n_entry,
    c.Pag.n_exit,
    c.Pag.n_assign_global )

type snapshot = entry_image list

(* Snapshot order: node, then stack symbols ([] first, then
   lexicographic), then state. Keys are unique within a snapshot, so this
   is exactly the order [List.sort compare] gives whole images — the
   marshalled cache bytes and the base ring's insertion order depend on
   it — without walking the payload lists on every comparison. *)
let rec compare_syms a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' -> ( match Int.compare x y with 0 -> compare_syms a' b' | c -> c)

let compare_image (n1, s1, st1, _, _, _) (n2, s2, st2, _, _, _) =
  match Int.compare n1 n2 with
  | 0 -> ( match compare_syms s1 s2 with 0 -> Int.compare st1 st2 | c -> c)
  | c -> c

(* the cache key holds only the domain-local hash-cons id of the field
   stack; the parallel key_stacks table provides the structural stack.
   Keys absent from key_stacks — memoised hits against the shared base
   tier — are deliberately skipped: a snapshot carries only summaries
   this engine computed itself. Sorted so the marshalled bytes don't
   depend on insertion (and hence scheduling) order. *)
let snapshot_tables cache key_stacks : snapshot =
  let images = ref [] in
  Cache.iter
    (fun ((node, _fid, state) as key) summary ->
      match Cache.find_opt key_stacks key with
      | None -> ()
      | Some stack ->
        let tuples =
          List.map
            (fun (n, f, s) -> (n, Hstack.to_list f, Ppta.state_to_int s))
            summary.Ppta.tuples
        in
        images :=
          ((node, Hstack.to_list stack, state, summary.Ppta.objs, tuples, summary.Ppta.fp)
            : entry_image)
          :: !images)
    cache;
  List.sort compare_image !images

let snapshot t = snapshot_tables t.cache t.key_stacks

let state_of_int = function 1 -> Ppta.S1 | _ -> Ppta.S2

(* ---------------------------- base tier ----------------------------- *)

let base_create ?(capacity = 0) () : base =
  if capacity < 0 then invalid_arg "Dynsum.base_create: capacity must be >= 0";
  {
    b_tbl = Base_tbl.create 1024;
    b_cap = capacity;
    b_ring = Queue.create ();
    b_hits = Atomic.make 0;
    b_misses = Atomic.make 0;
    b_evictions = Atomic.make 0;
  }

(* Second-chance clock sweep: pop ring slots until one points at a live,
   unreferenced entry and evict it. Slots whose key has already left the
   table (invalidation, or a duplicate slot from re-insertion) are
   discarded for free; a referenced entry loses its bit and goes to the
   back of the ring. Terminates: every iteration removes a slot, clears a
   set bit, or evicts, and all three are finite. *)
let rec base_evict_one (b : base) =
  match Queue.take_opt b.b_ring with
  | None -> ()
  | Some key -> (
    match Base_tbl.find_opt b.b_tbl key with
    | None -> base_evict_one b
    | Some e ->
      if e.be_ref then begin
        e.be_ref <- false;
        Queue.push key b.b_ring;
        base_evict_one b
      end
      else begin
        Base_tbl.remove b.b_tbl key;
        Atomic.incr b.b_evictions
      end)

let base_add (b : base) (s : snapshot) =
  (* first writer wins: summaries for the same key are equal sets (PPTA
     is deterministic), so keeping the incumbent only pins
     representation. Returns how many keys were new. Must only run while
     no worker is reading the base (between batches/requests). *)
  let fresh = ref 0 in
  List.iter
    (fun ((node, syms, state, objs, tuples, fp) : entry_image) ->
      let key = (node, syms, state) in
      if not (Base_tbl.mem b.b_tbl key) then begin
        if b.b_cap > 0 then
          while Base_tbl.length b.b_tbl >= b.b_cap do
            base_evict_one b
          done;
        incr fresh;
        Base_tbl.add b.b_tbl key
          { be_objs = objs; be_tuples = tuples; be_fp = fp; be_ref = false; be_mat = None };
        Queue.push key b.b_ring
      end)
    s;
  !fresh

(* Drop the ring slots of keys no longer in the table once they dominate,
   so a long-lived daemon's ring stays proportional to the live store. *)
let base_compact_ring (b : base) =
  if Queue.length b.b_ring > (2 * Base_tbl.length b.b_tbl) + 16 then begin
    let live = Queue.create () in
    let seen = Hashtbl.create (Base_tbl.length b.b_tbl) in
    Queue.iter
      (fun key ->
        if Base_tbl.mem b.b_tbl key && not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          Queue.push key live
        end)
      b.b_ring;
    Queue.clear b.b_ring;
    Queue.transfer live b.b_ring
  end

(* Runs on the owning thread between requests, never concurrently with
   readers. *)
let base_invalidate (b : base) dirty =
  let stale = Footprint.stale dirty in
  let doomed = ref [] in
  Base_tbl.iter (fun key e -> if stale e.be_fp then doomed := key :: !doomed) b.b_tbl;
  List.iter (Base_tbl.remove b.b_tbl) !doomed;
  base_compact_ring b;
  (List.length !doomed, Base_tbl.length b.b_tbl)

let base_length (b : base) = Base_tbl.length b.b_tbl
let base_capacity (b : base) = b.b_cap
let base_hits (b : base) = Atomic.get b.b_hits
let base_misses (b : base) = Atomic.get b.b_misses
let base_evictions (b : base) = Atomic.get b.b_evictions

let set_base t b = t.base <- Some b

(* The file holds the tier's entries as one sorted snapshot, so its
   bytes depend only on which summaries the tier holds, never on the
   order (or the domains) they arrived in. *)
let save_base (b : base) pag path =
  let images =
    Base_tbl.fold
      (fun (node, syms, state) e acc ->
        ((node, syms, state, e.be_objs, e.be_tuples, Footprint.nodes e.be_fp) : file_image)
        :: acc)
      b.b_tbl []
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Marshal.to_channel oc
        (magic, fingerprint pag, Pag.graph_hash pag, Pag.epoch pag, List.sort compare_image images)
        [])

(* [Marshal] cannot check a payload's type, but the values of a
   well-typed one can be checked: every node, state, site and stack
   symbol must be one this PAG can produce, or the first engine to read
   the entry indexes out of bounds. *)
let images_in_range pag (images : file_image list) =
  let nodes = Pag.node_count pag in
  let prog = Pag.program pag in
  let sites = Array.length prog.Ir.allocs in
  let syms_bound = 2 * Types.field_count prog.Ir.ctable in
  let node_ok n = 0 <= n && n < nodes in
  let state_ok st = st = Ppta.state_to_int Ppta.S1 || st = Ppta.state_to_int Ppta.S2 in
  let syms_ok = List.for_all (fun x -> x = Fstack.unknown_tail || (0 <= x && x < syms_bound)) in
  List.for_all
    (fun ((node, syms, state, objs, tuples, fp) : file_image) ->
      node_ok node && syms_ok syms && state_ok state
      && List.for_all (fun o -> 0 <= o && o < sites) objs
      && List.for_all (fun (n, f, st) -> node_ok n && syms_ok f && state_ok st) tuples
      && List.for_all node_ok fp)
    images

let load_base b pag path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match (Marshal.from_channel ic : string * 'a * int * int * file_image list) with
        | exception _ -> Error "corrupt cache file"
        | file_magic, fp, ghash, _epoch, images ->
          if file_magic <> magic then Error "not a dynsum cache file"
          else if fp <> fingerprint pag then Error "cache was built for a different PAG"
          else if ghash <> Pag.graph_hash pag then
            (* counts can collide across different edge sets (e.g. one
               assign deleted, another inserted); the order-independent
               edge-multiset hash cannot, so a cache from a drifted build
               of the same program is refused here *)
            Error "cache was built for a different version of this PAG"
          else if not (images_in_range pag images) then Error "corrupt cache file"
          else
            Ok
              (base_add b
                 (List.map
                    (fun (node, syms, state, objs, tuples, fp) ->
                      (node, syms, state, objs, tuples, Footprint.of_nodes fp))
                    images)))

let no_local_event = Trace.Counter { engine = name; name = "no_local_fastpath"; delta = 1 }

(* Summary lookup with the paper's fast path: a node without local edges
   needs no PPTA — its only continuation is itself as a frontier tuple. *)
let summarise t u f s =
  if not (Pag.has_local_edges t.pag u) then begin
    Trace.emit t.sink no_local_event;
    Ppta.frontier_only u f s
  end
  else begin
    let key = (u, Hstack.id f, Ppta.state_to_int s) in
    match Cache.find_opt t.cache key with
    | Some summary ->
      Trace.emit t.sink (Trace.Summary_hit { engine = name; node = u });
      summary
    | None ->
      (* Overlay miss: probe the shared base tier (structural key, so no
         rebase needed) before paying for a PPTA run. A base hit is
         memoised in the local cache but {e not} in [key_stacks], so the
         next [snapshot] won't re-export a summary this engine merely
         borrowed. *)
      let from_base =
        match t.base with
        | None -> None
        | Some b -> (
          match Base_tbl.find_opt b.b_tbl (u, Hstack.to_list f, Ppta.state_to_int s) with
          | Some e ->
            e.be_ref <- true;
            Atomic.incr b.b_hits;
            Some e
          | None ->
            Atomic.incr b.b_misses;
            Trace.emit t.sink (Trace.Counter { engine = name; name = "base_misses"; delta = 1 });
            None)
      in
      (match from_base with
      | Some ({ be_objs = objs; be_tuples = tuples; be_fp = fp; _ } as e) ->
        Trace.emit t.sink (Trace.Summary_hit { engine = name; node = u });
        Trace.emit t.sink (Trace.Counter { engine = name; name = "base_hits"; delta = 1 });
        let did = (Domain.self () :> int) in
        let summary =
          match e.be_mat with
          | Some (d, s) when d = did -> s
          | _ ->
            let s =
              {
                Ppta.objs;
                tuples =
                  List.map (fun (tn, tf, ts) -> (tn, Hstack.of_list tf, state_of_int ts)) tuples;
                fp;
              }
            in
            e.be_mat <- Some (did, s);
            s
        in
        Cache.add t.cache key summary;
        summary
      | None ->
        Trace.emit t.sink (Trace.Summary_miss { engine = name; node = u });
        let summary = Ppta.compute t.pag t.conf t.budget u f s in
        Cache.add t.cache key summary;
        Cache.add t.key_stacks key f;
        summary)
  end

(* ----------------------- targeted invalidation ---------------------- *)

(* Drop exactly the entries the {!Footprint.stale} cut condemns; the
   footprint is the cached summary's own. *)
let invalidate t dirty =
  let stale = Footprint.stale dirty in
  let doomed = ref [] in
  Cache.iter (fun key summary -> if stale summary.Ppta.fp then doomed := key :: !doomed) t.cache;
  List.iter
    (fun key ->
      Cache.remove t.cache key;
      Cache.remove t.key_stacks key)
    !doomed;
  (List.length !doomed, Cache.length t.cache)

let expand t u f s =
  let summary = summarise t u f s in
  { Kernel.lr_objs = summary.Ppta.objs;
    lr_match_objs = [];
    lr_frontier = summary.Ppta.tuples;
    lr_jumps = [] }

(* [satisfy] early exit: the worklist's accumulated set grows towards the
   answer from below, so the only sound early exit for an anti-monotone
   predicate is refutation — once the partial set falsifies the predicate,
   every superset (including the exact answer) does too. *)
let stop_of_satisfy satisfy =
  Option.map (fun pred -> fun acc -> not (pred acc)) satisfy

let points_to_in t ?satisfy v c0 =
  Trace.emit t.sink (Trace.Query_start { engine = name; node = v });
  Budget.start_query t.budget;
  let outcome =
    try
      Query.Resolved (Kernel.solve ?stop:(stop_of_satisfy satisfy) t.pag t.budget (expand t) v c0)
    with Budget.Out_of_budget ->
      Trace.emit t.sink
        (Trace.Budget_exceeded { engine = name; node = v; steps = Budget.steps_this_query t.budget });
      Query.Exceeded
  in
  (match outcome with
  | Query.Resolved ts ->
    Trace.emit t.sink
      (Trace.Query_end
         {
           engine = name;
           node = v;
           resolved = true;
           targets = Query.Target_set.cardinal ts;
           steps = Budget.steps_this_query t.budget;
         })
  | Query.Exceeded ->
    Trace.emit t.sink
      (Trace.Query_end
         { engine = name; node = v; resolved = false; targets = 0;
           steps = Budget.steps_this_query t.budget }));
  outcome

let points_to t ?satisfy v = points_to_in t ?satisfy v Hstack.empty
