module J = Trace.Json

type op =
  | Query of { client : string; engine : string; budget : int option }
  | Check of { checkers : string list; engine : string; budget : int option }
  | Edit of { edits : int; seed : int }
  | Stats
  | Shutdown

type request = { rq_id : J.t; rq_client : string; rq_op : op }

let op_name = function
  | Query _ -> "query"
  | Check _ -> "check"
  | Edit _ -> "edit"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

(* ----------------------------- decoding ----------------------------- *)

let str_member k j = match J.member k j with Some (J.String s) -> Some s | _ -> None
let int_member k j = match J.member k j with Some (J.Int i) -> Some i | _ -> None

let of_json j =
  match J.member "op" j with
  | None -> Error ("bad_request", "missing \"op\"")
  | Some (J.String opname) -> (
    let id = Option.value ~default:J.Null (J.member "id" j) in
    let client_id = Option.value ~default:"default" (str_member "client_id" j) in
    let engine = Option.value ~default:"dynsum" (str_member "engine" j) in
    let budget = int_member "budget" j in
    let mk op = Ok { rq_id = id; rq_client = client_id; rq_op = op } in
    match opname with
    | "query" -> (
      match str_member "client" j with
      | None -> Error ("bad_request", "query needs a \"client\"")
      | Some client -> mk (Query { client; engine; budget }))
    | "check" -> (
      match J.member "checkers" j with
      | None -> mk (Check { checkers = []; engine; budget })
      | Some (J.List xs) -> (
        match
          List.map (function J.String s -> s | _ -> raise Exit) xs
        with
        | names -> mk (Check { checkers = names; engine; budget })
        | exception Exit -> Error ("bad_request", "\"checkers\" must be a list of strings"))
      | Some _ -> Error ("bad_request", "\"checkers\" must be a list of strings"))
    | "edit" ->
      mk
        (Edit
           {
             edits = Option.value ~default:8 (int_member "edits" j);
             seed = Option.value ~default:1 (int_member "seed" j);
           })
    | "stats" -> mk Stats
    | "shutdown" -> mk Shutdown
    | other -> Error ("bad_request", Printf.sprintf "unknown op %S" other))
  | Some _ -> Error ("bad_request", "\"op\" must be a string")

let of_line line =
  match J.of_string line with
  | Error msg -> Error ("parse_error", msg)
  | Ok j -> of_json j

(* ----------------------------- encoding ----------------------------- *)

let ok ~id ~op fields =
  J.Obj (("id", id) :: ("ok", J.Bool true) :: ("op", J.String op) :: fields)

let error ~id code msg =
  J.Obj
    [
      ("id", id);
      ("ok", J.Bool false);
      ("error", J.Obj [ ("code", J.String code); ("msg", J.String msg) ]);
    ]
