(** The long-running analysis daemon behind [ptsto serve].

    A daemon loads and freezes one PAG, then answers {!Proto} requests
    for the rest of its life. The perf heart is a single cross-request
    {!Dynsum.base} tier: summaries distilled by one request seed every
    later one, so a warm daemon answers the same workload materially
    faster than a cold one (the [bench serve] target measures the
    ratio). The tier is size-bounded with second-chance eviction and is
    epoch-keyed: an [edit] request routes through {!Incr.apply}, which
    drops exactly the footprint-dirty entries and keeps the rest.

    Single-threaded by construction — one request executes at a time,
    and parallelism lives inside the engine ([c_jobs] worker domains per
    request), so responses are deterministic and byte-identical to the
    one-shot CLI ([ptsto client --verdicts-json] / [ptsto check]). *)

type config = {
  c_jobs : int;  (** {!Parsolve} worker domains per request *)
  c_budget : int;  (** default per-query step budget *)
  c_max_budget : int;  (** per-request budget ceiling; 0 = no ceiling *)
  c_base_capacity : int;  (** cross-request tier entries; 0 = unbounded *)
  c_queue_capacity : int;  (** admission queue depth; 0 = unbounded *)
  c_max_cost : int;
      (** per-request ceiling on the summed Andersen oracle row sizes
          ({!Pag.oracle_row_size}) of the request's unique query roots;
          0 = off, and then no request is priced *)
  c_pipeline : int;  (** requests read ahead before draining *)
}

val default_config : config
(** jobs 1, budget {!Conf.default}, no ceilings,
    queue capacity 64, pipeline window 1. *)

val clients : (string * (string * (Pts_clients.Pipeline.t -> Pts_clients.Client.query list))) list
(** Query-set clients a [query] request can name: {!Pts_clients.Queryset.all},
    the table [ptsto client -c] reads too. *)

type t

val create :
  ?config:config ->
  ?trace:Trace.sink ->
  checkers:Pts_clients.Check.checker list ->
  Pts_clients.Pipeline.t ->
  t
(** Freeze a pipeline into a daemon. [checkers] is the pool a [check]
    request draws from (empty request list = all of them). The daemon's
    base tier is registered with an {!Incr} instance so edit bursts
    invalidate it alongside the engine caches. *)

val base : t -> Dynsum.base
(** The cross-request summary tier (for tests and metrics). *)

val shutting_down : t -> bool

val handle : t -> Proto.request -> Trace.Json.t
(** Execute one request and return its response envelope. Also records
    the request latency (a {!Trace.Request_latency} event and the
    percentile pool [stats] reports). *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Newline-delimited JSON loop: read up to [c_pipeline] requests,
    admission-check each ({!Admit}), drain in fair-share order, answer
    one line per request. Returns on EOF or after a [shutdown] request
    (queued requests behind it are answered with ["shutting_down"]). *)

val serve_socket : t -> string -> unit
(** Same loop over a Unix-domain socket at the given path (unlinked and
    re-bound on start, removed on exit). One connection at a time. *)
