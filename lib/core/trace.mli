(** Structured observability for the demand engines.

    Engines report typed {!type:event}s to a pluggable {!type:sink} instead of
    bumping ad-hoc printf counters. The stock sinks cover the three
    consumers the system has today:

    - {!null} — production hot path, zero work;
    - {!counting} — aggregates events into a {!Pts_util.Stats} table
      under their canonical counter names ({!counter_name});
    - {!jsonl} / {!to_file} — one JSON object per event, for offline
      analysis of query behaviour ([ptsto --trace FILE]).

    Sinks compose with {!tee}. Events carry no wall-clock timestamps so
    that traces of deterministic runs are byte-for-byte reproducible. *)

(** Hand-rolled JSON (the toolchain has no JSON library baked in). Also
    used by [ptsto --metrics-json] and the bench metrics blobs. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering; strings are escaped, non-finite floats become
      [null]. *)

  val of_string : string -> (t, string) result
  (** Parse one JSON value (the serve daemon's request lines). Strict:
      rejects trailing garbage; numbers with a fraction or exponent
      decode to [Float], all others to [Int]; object member order is
      preserved, and [\uXXXX] escapes decode to UTF-8 bytes. The error
      string includes the byte offset. *)

  val member : string -> t -> t option
  (** [member k (Obj kvs)] is the first binding of [k]; [None] on any
      other constructor or an absent key. *)
end

type event =
  | Query_start of { engine : string; node : int }
  | Query_end of { engine : string; node : int; resolved : bool; targets : int; steps : int }
  | Summary_hit of { engine : string; node : int }
      (** a local-edge summary (PPTA cache, STASUM table, or the
          Sridharan–Bodík within-query memo) answered a worklist pop *)
  | Summary_miss of { engine : string; node : int }
  | Refine_pass of { engine : string; node : int; pass : int }
  | Match_edge of { engine : string; fld : int }
      (** a field-based match edge was recorded for later refinement *)
  | Budget_exceeded of { engine : string; node : int; steps : int }
  | Steal of { engine : string; thief : int; victim : int }
      (** the batch scheduler moved a query from [victim]'s deque to
          [thief] (domain indices); aggregates into ["steals"] *)
  | Queue_depth of { engine : string; domain : int; depth : int }
      (** deque depth sampled when a worker goes looking for work — a
          gauge, not a count, so it feeds no counter *)
  | Counter of { engine : string; name : string; delta : int }
      (** escape hatch for engine-specific counters (e.g. DYNSUM's
          ["no_local_fastpath"]) *)
  | Request_latency of { engine : string; op : string; micros : int }
      (** wall-clock service time of one serve-daemon request; aggregates
          into ["request_latency_micros"]. The one deliberately
          timing-bearing event: daemon traces measure a live system, so
          they trade the reproducibility guarantee above for latency. *)

type sink = { emit : event -> unit; close : unit -> unit }

val null : sink
val emit : sink -> event -> unit
val close : sink -> unit

val tee : sink -> sink -> sink

val counting : Pts_util.Stats.t -> sink
(** Aggregate events into [stats] under their canonical names
    ({!counter_name}, by {!counter_delta}). The sink looks each counter
    cell up once and keeps it, so a hot event costs an integer add. *)

val jsonl : out_channel -> sink
(** One compact JSON object per event, newline-delimited. [close] flushes
    but does not close the channel. *)

val to_file : string -> sink
(** [jsonl] over a fresh file; [close] closes it. *)

(** {2 Shutdown flushing}

    A daemon killed by SIGINT/SIGTERM dies without [at_exit], truncating
    buffered trace files mid-line. {!to_file} sinks and {!type:writer}s
    register themselves with a process-wide flush registry;
    {!flush_on_signals} arranges for that registry to drain before the
    process exits on either signal. *)

val flush_on_signals : unit -> unit
(** Install SIGINT/SIGTERM handlers that flush every registered channel
    and exit with the conventional [128+signal] status. The flush is
    best-effort and non-blocking: a writer whose mutex is currently held
    by an interrupted thread is skipped (its lines are whole on disk;
    only its channel buffer waits for the runtime's own exit flushing). Idempotent; safe on platforms
    without signals (installation failures are ignored). *)

(** {2 Domain-safe plumbing}

    A plain {!sink} is single-domain state. When several domains trace
    concurrently (the parallel batch scheduler), give each domain its own
    {!buffered_jsonl} sink over one shared {!type:writer}: events
    accumulate in a per-domain buffer of complete lines and are flushed
    to the underlying channel under the writer's mutex, so the output
    file interleaves whole JSONL lines, never partial ones. *)

type writer

val writer : out_channel -> writer
(** Mutex-guarded writer over an existing channel; {!writer_close}
    flushes but does not close it. *)

val writer_to_file : string -> writer
(** Writer over a fresh file; {!writer_close} closes it. *)

val writer_close : writer -> unit

val buffered_jsonl : ?flush_bytes:int -> writer -> sink
(** Per-domain sink: buffers whole JSONL lines locally and hands them to
    the shared writer once [flush_bytes] (default 64 KiB) accumulate.
    [close] flushes the buffer; call it in the domain that emitted. *)

