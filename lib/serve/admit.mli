(** Admission control: a bounded pending queue with per-client fair
    share and a per-request cost ceiling.

    The daemon submits every parsed request here before executing
    anything; rejected requests get an immediate structured error while
    accepted ones wait their turn. Draining is round-robin {e across
    clients} and FIFO {e within} a client, so a client that floods the
    queue only delays itself: with clients A and B pending, the service
    order alternates A, B, A, B regardless of how many requests A piled
    up first. Single-owner state — the daemon loop is the only caller —
    so the structure is deliberately lock-free. *)

type 'a t

val create : ?capacity:int -> ?max_cost:int -> unit -> 'a t
(** [capacity] (default 64) bounds pending requests, 0 = unbounded;
    [max_cost] (default 0 = off) is the cost ceiling above which a
    request is rejected as oversized. The cost unit is the caller's; the
    daemon prices a request as the summed oracle row sizes of its
    unique query roots.
    @raise Invalid_argument on negative arguments. *)

val submit : 'a t -> client:string -> cost:int -> 'a -> (unit, string * string) result
(** Enqueue under the client's fair-share key. [Error (code, msg)] with
    code ["oversized"] (cost above the ceiling — counted, never queued)
    or ["overloaded"] (queue full). *)

val next : 'a t -> 'a option
(** Pop the next request in fair-share order; [None] when idle. *)

val pending : 'a t -> int
val capacity : 'a t -> int
val max_cost : 'a t -> int
val accepted : 'a t -> int
val rejected_oversized : 'a t -> int
val rejected_overloaded : 'a t -> int
