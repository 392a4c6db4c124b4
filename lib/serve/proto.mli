(** Wire protocol of the serve daemon.

    One JSON object per line in, one per line out. Every request may
    carry an [id] (echoed verbatim in the response, so pipelined clients
    can match answers to questions) and a [client_id] (the admission
    controller's fair-share key). Operations:

    - [{"op":"query","client":"safecast","engine":"dynsum",
       "budget":75000}] — run a client's query set; the response embeds
      the canonical {!Pts_clients.Client.verdicts_json} object.
    - [{"op":"check","checkers":["nullderef"],...}] — run checkers; the
      response embeds the {!Pts_clients.Check.report_json} report.
    - [{"op":"edit","edits":8,"seed":1}] — apply a seeded edit burst
      through {!Incr.apply}, invalidating exactly the footprint-dirty
      summaries in the cross-request tier.
    - [{"op":"stats"}] — daemon counters, base-tier health, latency
      percentiles.
    - [{"op":"shutdown"}] — acknowledge and stop.

    Failures are structured: [{"id":...,"ok":false,"error":{"code":C,
    "msg":M}}] with codes ["parse_error"], ["bad_request"],
    ["oversized"], ["overloaded"], ["budget_too_large"],
    ["shutting_down"]. *)

type op =
  | Query of { client : string; engine : string; budget : int option }
  | Check of { checkers : string list; engine : string; budget : int option }
      (** empty [checkers] means all registered checkers *)
  | Edit of { edits : int; seed : int }
  | Stats
  | Shutdown

type request = {
  rq_id : Trace.Json.t;  (** echoed back; [Null] when the client sent none *)
  rq_client : string;  (** fair-share key; ["default"] when absent *)
  rq_op : op;
}

val op_name : op -> string

val of_line : string -> (request, string * string) result
(** Parse then decode one request line; [Error (code, msg)] uses the
    structured-error codes above. *)

val ok : id:Trace.Json.t -> op:string -> (string * Trace.Json.t) list -> Trace.Json.t
(** Success envelope: [{"id":...,"ok":true,"op":...,<fields>}]. *)

val error : id:Trace.Json.t -> string -> string -> Trace.Json.t
(** Failure envelope with a structured [error] object. *)
