(* Admission control for the serve daemon: a bounded pending queue with
   per-client fair share, plus a per-request cost ceiling so one
   pathological request is refused up front instead of starving the
   queue from inside an engine run. Single-owner state: the daemon's
   read-admit-drain loop is the only toucher, so no locking here. *)

type 'a t = {
  capacity : int; (* max pending requests; 0 = unbounded *)
  max_cost : int; (* cost ceiling per request; 0 = off *)
  queues : (string, 'a Queue.t) Hashtbl.t; (* client -> its FIFO *)
  rotation : string Queue.t; (* clients holding pending work, round-robin *)
  mutable pending : int;
  mutable accepted : int;
  mutable rejected_oversized : int;
  mutable rejected_overloaded : int;
}

let create ?(capacity = 64) ?(max_cost = 0) () =
  if capacity < 0 then invalid_arg "Admit.create: capacity must be >= 0";
  if max_cost < 0 then invalid_arg "Admit.create: max_cost must be >= 0";
  {
    capacity;
    max_cost;
    queues = Hashtbl.create 8;
    rotation = Queue.create ();
    pending = 0;
    accepted = 0;
    rejected_oversized = 0;
    rejected_overloaded = 0;
  }

let submit t ~client ~cost x =
  if t.max_cost > 0 && cost > t.max_cost then begin
    t.rejected_oversized <- t.rejected_oversized + 1;
    Error
      ( "oversized",
        Printf.sprintf "request cost %d exceeds the per-request ceiling %d" cost t.max_cost )
  end
  else if t.capacity > 0 && t.pending >= t.capacity then begin
    t.rejected_overloaded <- t.rejected_overloaded + 1;
    Error ("overloaded", Printf.sprintf "queue full (%d pending)" t.pending)
  end
  else begin
    let q =
      match Hashtbl.find_opt t.queues client with
      | Some q -> q
      | None ->
        (* invariant: a client is in [rotation] exactly once while it has
           a queue in [queues] *)
        let q = Queue.create () in
        Hashtbl.add t.queues client q;
        Queue.push client t.rotation;
        q
    in
    Queue.push x q;
    t.pending <- t.pending + 1;
    t.accepted <- t.accepted + 1;
    Ok ()
  end

let rec next t =
  match Queue.take_opt t.rotation with
  | None -> None
  | Some client -> (
    match Hashtbl.find_opt t.queues client with
    | None -> next t (* defensive: stale rotation slot *)
    | Some q -> (
      match Queue.take_opt q with
      | None ->
        Hashtbl.remove t.queues client;
        next t
      | Some x ->
        t.pending <- t.pending - 1;
        if Queue.is_empty q then Hashtbl.remove t.queues client
        else Queue.push client t.rotation;
        Some x))

let pending t = t.pending
let capacity t = t.capacity
let max_cost t = t.max_cost
let accepted t = t.accepted
let rejected_oversized t = t.rejected_oversized
let rejected_overloaded t = t.rejected_overloaded
