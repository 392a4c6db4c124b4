module Hstack = Pts_util.Hstack
module Stats = Pts_util.Stats

type query = { node : Pag.node; satisfy : (Query.Target_set.t -> bool) option }

let query ?satisfy node = { node; satisfy }

type domain_report = {
  dr_round : int;
  dr_domain : int;
  dr_queries : int;
  dr_steps : int;
  dr_seconds : float;
  dr_summaries : int;
  dr_steals : int;
}

type result = {
  outcomes : Query.outcome array;
  reports : domain_report list;
  stats : Stats.t;
  wall_seconds : float;
  jobs : int;
  rounds : int;
  steals : int;
  actual_steps : int array;
  merged_summaries : int;
  unique_summaries : int;
  summaries : Dynsum.snapshot Lazy.t;
  base_hits : int;
  base_misses : int;
  base_evictions : int;
  base_size : int;
}

(* What one domain hands back from one round. Everything in here is
   either immutable, or mutable state the worker stops touching before
   [Domain.join] (which is the happens-before edge the main domain reads
   it under). Field stacks inside [wr_outcomes] are hash-consed in the
   {e worker's} store and must be rebased before the main domain may use
   them as keys (see {!Pts_util.Hstack.rebase}); [wr_snapshot] is
   structural and travels freely. It is already forced when the round is
   exported; otherwise it is forced — on the calling domain, after join —
   only if the final pool is. *)
type worker_result = {
  wr_outcomes : (int * Query.outcome * int) list; (* index, outcome, steps *)
  wr_stats : Stats.t;
  wr_steps : int;
  wr_seconds : float;
  wr_summaries : int;
  wr_steals : int;
  wr_snapshot : Dynsum.snapshot Lazy.t option; (* DYNSUM only *)
}

(* DYNSUM is special-cased by registry name: the uniform [Engine.engine]
   record hides the concrete engine, and the summary base/snapshot
   protocol only exists for DYNSUM (STASUM's table is a pure function of
   the PAG, the SB engines have no cross-query state). *)
let build_engine ~conf ~trace name pag =
  if name = "dynsum" then begin
    let d = Dynsum.create ~conf ?trace pag in
    (Engine.dynsum d, Some d)
  end
  else (Engine.create ~conf ?trace name pag, None)

(* Re-intern every context stack of a worker-domain outcome in the
   calling domain's hash-cons store. [Target.compare] orders by stack id,
   so a set is only meaningful in the domain whose store minted the ids. *)
let rebase_outcome = function
  | Query.Exceeded -> Query.Exceeded
  | Query.Resolved ts ->
    Query.Resolved
      (Query.Target_set.fold
         (fun t acc ->
           Query.Target_set.add
             { t with Query.Target.hctx = Hstack.rebase t.Query.Target.hctx }
             acc)
         ts Query.Target_set.empty)

(* A worker owns [deques.(self)] (ownership transferred by the main
   domain across [Domain.spawn]) and steals from the fullest peer once
   its own deque runs dry. Tasks are only ever seeded before the round
   starts, so "every deque empty" is a stable termination condition —
   [Wsdeque.steal] returning [None] on a lost race just sends the thief
   back to rescan. *)
let run_worker ~conf ~trace_writer ~engine_name ~pag ~base ~export ~deques ~self () =
  let trace = Option.map Trace.buffered_jsonl trace_writer in
  let eng, dyn = build_engine ~conf ~trace engine_name pag in
  (match dyn, base with Some d, Some b -> Dynsum.set_base d b | _ -> ());
  let outs = ref [] in
  let steals = ref 0 in
  let run_task (i, q) =
    let before = Budget.total_steps eng.Engine.budget in
    let o = eng.Engine.points_to ?satisfy:q.satisfy q.node in
    outs := (i, o, Budget.total_steps eng.Engine.budget - before) :: !outs
  in
  let jobs = Array.length deques in
  let rec drain () =
    match Wsdeque.pop deques.(self) with
    | Some t ->
      run_task t;
      drain ()
    | None -> scavenge ()
  and scavenge () =
    (* own deque dry: raid the fullest peer (FIFO end, i.e. the last
       queries of its block in arrival order) *)
    let victim = ref (-1) and depth = ref 0 in
    for d = 0 to jobs - 1 do
      if d <> self then begin
        let s = Wsdeque.size deques.(d) in
        if s > !depth then begin
          victim := d;
          depth := s
        end
      end
    done;
    if !victim >= 0 then begin
      (match trace with
      | Some s ->
        Trace.emit s (Trace.Queue_depth { engine = engine_name; domain = !victim; depth = !depth })
      | None -> ());
      match Wsdeque.steal deques.(!victim) with
      | Some t ->
        incr steals;
        (match trace with
        | Some s -> Trace.emit s (Trace.Steal { engine = engine_name; thief = self; victim = !victim })
        | None -> ());
        run_task t;
        drain ()
      | None -> scavenge () (* lost the race; someone made progress *)
    end
    (* else: every deque empty — in-flight tasks belong to their takers,
       nothing left for us *)
  in
  let (), seconds = Stats.time drain in
  (match trace with Some s -> Trace.close s | None -> ());
  {
    wr_outcomes = !outs;
    wr_stats = eng.Engine.stats;
    wr_steps = Budget.total_steps eng.Engine.budget;
    wr_seconds = seconds;
    wr_summaries =
      (match dyn with Some d -> Dynsum.new_summary_count d | None -> eng.Engine.summary_count ());
    wr_steals = !steals;
    wr_snapshot =
      Option.map
        (fun d ->
          let s = Dynsum.deferred_snapshot d in
          if export then ignore (Lazy.force s);
          s)
        dyn;
  }

let run ?(conf = Conf.default) ?trace_writer ?(jobs = 1) ?(rounds = 1) ?base
    ~engine:engine_name pag queries =
  if jobs < 1 then invalid_arg "Parsolve.run: jobs must be >= 1";
  if rounds < 1 then invalid_arg "Parsolve.run: rounds must be >= 1";
  (match Engine.find engine_name with
  | Some _ -> ()
  | None ->
    invalid_arg
      (Printf.sprintf "Parsolve.run: unknown engine %S (known: %s)" engine_name
         (String.concat ", " (Engine.names ()))));
  (* a frozen PAG is shareable: the slabs are immutable and the edit
     overlay, if any, is only written by [Pag.apply_edits] between
     batches — never concurrently with a run. [packed] raises before
     [freeze], turning a data race on the build side into an immediate
     error. By default the shared base tier below lives within this one
     call, so an edit between calls can never feed it a stale summary; a
     caller passing [?base] owns that invariant instead — the serve
     daemon keeps one tier across requests and runs
     [Dynsum.base_invalidate] on every edit commit. *)
  ignore (Pag.packed pag);
  let n = Array.length queries in
  let outcomes = Array.make n Query.Exceeded in
  let actual_steps = Array.make n 0 in
  let agg_stats = Stats.create () in
  let reports = ref [] in
  (* Shared summary tiers. [base] holds every summary any domain has
     computed in a {e finished, published} round, read by reference from
     all workers of later rounds (grown only here, between joins).
     Export is on demand: a round is published only when something will
     read it — a later round of this call, or a tier the caller keeps.
     [all_snaps] remembers every worker's (possibly unforced) snapshot
     for the final pool. *)
  let caller_tier = Option.is_some base in
  let base =
    match base with
    | Some _ as b -> if engine_name = "dynsum" then b else None
    | None -> if engine_name = "dynsum" then Some (Dynsum.base_create ()) else None
  in
  let all_snaps = ref [] in
  let produced = ref 0 in
  let producers = ref 0 in
  let total_steals = ref 0 in
  let rounds = min rounds (max n 1) in
  let (), wall_seconds =
    Stats.time (fun () ->
        for round = 0 to rounds - 1 do
          (* consecutive index chunk per round (batch arrival order) *)
          let lo = round * n / rounds and hi = (round + 1) * n / rounds in
          (* split the round into [jobs] contiguous blocks in arrival
             order, and push each block last-first so its owner pops it
             in index order (one domain answers exactly as a sequential
             loop would) while thieves lift the block's tail.
             Neighbouring queries share summaries, so blocks beat
             round-robin dealing at jobs 2 (EXPERIMENTS.md, "One batch
             schedule"). *)
          let shares = Array.make jobs [] in
          for i = lo to hi - 1 do
            let d = (i - lo) * jobs / (hi - lo) in
            shares.(d) <- (i, queries.(i)) :: shares.(d)
          done;
          let deques =
            Array.map
              (fun share ->
                let dq = Wsdeque.create ~capacity:(max 16 (List.length share + 1)) () in
                List.iter (fun t -> Wsdeque.push dq t) share;
                dq)
              shares
          in
          (* A published round is snapshotted inside its workers. So is
             every round with several domains: their summaries overlap,
             so the pool is forced for [unique_summaries] anyway, and
             snapshotting in parallel beats doing it after join. *)
          let publish = round < rounds - 1 || caller_tier in
          let export = publish || jobs > 1 in
          let work d =
            run_worker ~conf ~trace_writer ~engine_name ~pag ~base ~export ~deques ~self:d
          in
          let results =
            if jobs = 1 then [| work 0 () |]
            else Array.map Domain.join (Array.init jobs (fun d -> Domain.spawn (work d)))
          in
          Array.iteri
            (fun d wr ->
              List.iter
                (fun (i, o, steps) ->
                  (* jobs = 1 ran inline: its stacks are already ours *)
                  outcomes.(i) <- (if jobs = 1 then o else rebase_outcome o);
                  actual_steps.(i) <- steps)
                wr.wr_outcomes;
              Stats.merge_into ~into:agg_stats wr.wr_stats;
              total_steals := !total_steals + wr.wr_steals;
              reports :=
                {
                  dr_round = round;
                  dr_domain = d;
                  dr_queries = List.length wr.wr_outcomes;
                  dr_steps = wr.wr_steps;
                  dr_seconds = wr.wr_seconds;
                  dr_summaries = wr.wr_summaries;
                  dr_steals = wr.wr_steals;
                }
                :: !reports)
            results;
          Array.iter
            (fun wr ->
              match wr.wr_snapshot with
              | None -> ()
              | Some s -> (
                produced := !produced + wr.wr_summaries;
                if wr.wr_summaries > 0 then incr producers;
                all_snaps := s :: !all_snaps;
                match base with
                | Some b when publish -> ignore (Dynsum.base_add b (Lazy.force s))
                | _ -> ()))
            results
        done)
  in
  if !total_steals > 0 then Stats.add agg_stats "steals" !total_steals;
  (* Same input order as an eager export (rounds, then domains), so the
     forced pool is the one every round would have published. *)
  let summaries =
    let snaps = List.rev !all_snaps in
    lazy (Dynsum.snapshot_union (List.map Lazy.force snaps))
  in
  (* One engine's snapshot has no duplicate keys; only several producers
     can overlap, and only then does the count need the pool. *)
  let unique_summaries =
    if !producers <= 1 then !produced else Dynsum.snapshot_length (Lazy.force summaries)
  in
  let base_hits, base_misses, base_evictions, base_size =
    match base with
    | None -> (0, 0, 0, 0)
    | Some b -> (Dynsum.base_hits b, Dynsum.base_misses b, Dynsum.base_evictions b, Dynsum.base_length b)
  in
  {
    outcomes;
    reports = List.rev !reports;
    stats = agg_stats;
    wall_seconds;
    jobs;
    rounds;
    steals = !total_steals;
    actual_steps;
    merged_summaries = !produced;
    unique_summaries;
    summaries;
    base_hits;
    base_misses;
    base_evictions;
    base_size;
  }
