module Stats = Pts_util.Stats

(* ------------------------------ JSON ------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float x ->
      if Float.is_finite x then Buffer.add_string buf (Printf.sprintf "%.6g" x)
      else Buffer.add_string buf "null"
    | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    emit buf j;
    Buffer.contents buf

  (* Recursive-descent parser for the serve daemon's request lines — the
     inverse of [emit], and like it hand-rolled because the toolchain
     ships no JSON library. Numbers with a fraction or exponent decode to
     [Float], the rest to [Int]; object member order is preserved. *)
  exception Parse of string * int

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse (msg, !pos)) in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let keyword kw v =
      if !pos + String.length kw <= n && String.sub s !pos (String.length kw) = kw then begin
        pos := !pos + String.length kw;
        v
      end
      else fail (Printf.sprintf "expected %s" kw)
    in
    let add_utf8 buf cp =
      (* the emitter only escapes control characters, so decoding \uXXXX
         to UTF-8 bytes round-trips everything it produces *)
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v = int_of_string ("0x" ^ String.sub s !pos 4) in
      pos := !pos + 4;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "truncated escape";
          let c = s.[!pos] in
          incr pos;
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> add_utf8 buf (hex4 ())
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      if !pos < n && s.[!pos] = '-' then incr pos;
      let digits () =
        let d0 = !pos in
        while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
          incr pos
        done;
        if !pos = d0 then fail "expected digit"
      in
      digits ();
      let fractional = ref false in
      if !pos < n && s.[!pos] = '.' then begin
        fractional := true;
        incr pos;
        digits ()
      end;
      if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
        fractional := true;
        incr pos;
        if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then incr pos;
        digits ()
      end;
      let lit = String.sub s start (!pos - start) in
      if !fractional then Float (float_of_string lit)
      else match int_of_string_opt lit with Some i -> Int i | None -> Float (float_of_string lit)
    in
    let rec parse_value () =
      skip_ws ();
      if !pos >= n then fail "unexpected end of input";
      match s.[!pos] with
      | 'n' -> keyword "null" Null
      | 't' -> keyword "true" (Bool true)
      | 'f' -> keyword "false" (Bool false)
      | '"' -> String (parse_string ())
      | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          List []
        end
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              elems (v :: acc)
            end
            else begin
              expect ']';
              List.rev (v :: acc)
            end
          in
          List (elems [])
      | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec members acc =
            let kv = member () in
            skip_ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              members (kv :: acc)
            end
            else begin
              expect '}';
              List.rev (kv :: acc)
            end
          in
          Obj (members [])
      | '-' | '0' .. '9' -> parse_number ()
      | c -> fail (Printf.sprintf "unexpected %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)
    | exception Failure _ -> Error "malformed number"

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

(* ------------------------------ events ----------------------------- *)

type event =
  | Query_start of { engine : string; node : int }
  | Query_end of { engine : string; node : int; resolved : bool; targets : int; steps : int }
  | Summary_hit of { engine : string; node : int }
  | Summary_miss of { engine : string; node : int }
  | Refine_pass of { engine : string; node : int; pass : int }
  | Match_edge of { engine : string; fld : int }
  | Budget_exceeded of { engine : string; node : int; steps : int }
  | Steal of { engine : string; thief : int; victim : int }
  | Queue_depth of { engine : string; domain : int; depth : int }
  | Counter of { engine : string; name : string; delta : int }
  | Request_latency of { engine : string; op : string; micros : int }

let event_engine = function
  | Query_start { engine; _ }
  | Query_end { engine; _ }
  | Summary_hit { engine; _ }
  | Summary_miss { engine; _ }
  | Refine_pass { engine; _ }
  | Match_edge { engine; _ }
  | Budget_exceeded { engine; _ }
  | Steal { engine; _ }
  | Queue_depth { engine; _ }
  | Counter { engine; _ }
  | Request_latency { engine; _ } -> engine

(* The counter a counting sink aggregates the event into. [Query_end]
   carries no count of its own (its steps are already in the budget). *)
let counter_name = function
  | Query_start _ -> Some "queries"
  | Query_end _ -> None
  | Summary_hit _ -> Some "summary_hits"
  | Summary_miss _ -> Some "summary_misses"
  | Refine_pass _ -> Some "passes"
  | Match_edge _ -> Some "match_edges"
  | Budget_exceeded _ -> Some "exceeded"
  | Steal _ -> Some "steals"
  | Queue_depth _ -> None (* a gauge, not a count *)
  | Counter { name; _ } -> Some name
  | Request_latency _ -> Some "request_latency_micros"

let counter_delta = function
  | Counter { delta; _ } -> delta
  | Request_latency { micros; _ } -> micros
  | _ -> 1

let event_to_json e =
  let open Json in
  let base kind fields = Obj (("ev", String kind) :: ("engine", String (event_engine e)) :: fields)
  in
  match e with
  | Query_start { node; _ } -> base "query_start" [ ("node", Int node) ]
  | Query_end { node; resolved; targets; steps; _ } ->
    base "query_end"
      [ ("node", Int node); ("resolved", Bool resolved); ("targets", Int targets); ("steps", Int steps) ]
  | Summary_hit { node; _ } -> base "summary_hit" [ ("node", Int node) ]
  | Summary_miss { node; _ } -> base "summary_miss" [ ("node", Int node) ]
  | Refine_pass { node; pass; _ } -> base "refine_pass" [ ("node", Int node); ("pass", Int pass) ]
  | Match_edge { fld; _ } -> base "match_edge" [ ("fld", Int fld) ]
  | Budget_exceeded { node; steps; _ } ->
    base "budget_exceeded" [ ("node", Int node); ("steps", Int steps) ]
  | Steal { thief; victim; _ } -> base "steal" [ ("thief", Int thief); ("victim", Int victim) ]
  | Queue_depth { domain; depth; _ } ->
    base "queue_depth" [ ("domain", Int domain); ("depth", Int depth) ]
  | Counter { name; delta; _ } -> base "counter" [ ("name", String name); ("delta", Int delta) ]
  | Request_latency { op; micros; _ } ->
    base "request_latency" [ ("op", String op); ("micros", Int micros) ]

(* ------------------------------ sinks ------------------------------ *)

type sink = { emit : event -> unit; close : unit -> unit }

let null = { emit = ignore; close = ignore }

let emit sink e = sink.emit e
let close sink = sink.close ()

let tee a b =
  {
    emit =
      (fun e ->
        a.emit e;
        b.emit e);
    close =
      (fun () ->
        a.close ();
        b.close ());
  }

(* Slot of an event's fixed counter in a counting sink's cell cache;
   -1 for [Counter] (named per event) and for uncounted events. *)
let fixed_slot = function
  | Query_start _ -> 0
  | Summary_hit _ -> 1
  | Summary_miss _ -> 2
  | Refine_pass _ -> 3
  | Match_edge _ -> 4
  | Budget_exceeded _ -> 5
  | Steal _ -> 6
  | Request_latency _ -> 7
  | Query_end _ | Queue_depth _ | Counter _ -> -1

(* Each counter cell is looked up by name once per sink and then kept, so
   the engines' per-step summary events add to an int ref instead of
   hashing a string. Cells are still created on first use, so [stats]
   never lists a counter that was not bumped. *)
let counting stats =
  let none = ref 0 in
  let fixed = Array.make 8 none in
  (* [Counter] names are usually literals, so a physical-equality cache
     catches them; bounded, in case a caller builds names on the fly *)
  let named = ref [] and n_named = ref 0 in
  let rec cached name = function
    | [] -> none
    | (n, c) :: rest -> if n == name then c else cached name rest
  in
  let named_cell name =
    let c = cached name !named in
    if c != none then c
    else begin
      let c = Stats.cell stats name in
      if !n_named < 16 then begin
        named := (name, c) :: !named;
        incr n_named
      end;
      c
    end
  in
  (* [none] stands for "not counted", so a hot emit allocates nothing *)
  let cell e =
    match e with
    | Counter { name; _ } -> named_cell name
    | _ -> (
      let slot = fixed_slot e in
      if slot < 0 then none
      else if fixed.(slot) != none then fixed.(slot)
      else
        match counter_name e with
        | Some name ->
          let c = Stats.cell stats name in
          fixed.(slot) <- c;
          c
        | None -> none)
  in
  {
    emit =
      (fun e ->
        let c = cell e in
        if c != none then c := !c + counter_delta e);
    close = ignore;
  }

(* --------------------- shutdown-flush registry --------------------- *)

(* A process killed by SIGINT/SIGTERM dies without running [at_exit], so
   whatever a trace channel has buffered is lost and the file ends
   mid-line. Every channel-owning sink/writer registers a flush thunk
   here; [flush_on_signals] installs handlers that drain the registry and
   then exit with the conventional 128+signal status. *)
let flush_mutex = Mutex.create ()
let flush_fns : (int, unit -> unit) Hashtbl.t = Hashtbl.create 8
let flush_next_id = ref 0

let register_flush f =
  Mutex.lock flush_mutex;
  let id = !flush_next_id in
  incr flush_next_id;
  Hashtbl.replace flush_fns id f;
  Mutex.unlock flush_mutex;
  id

let unregister_flush id =
  Mutex.lock flush_mutex;
  Hashtbl.remove flush_fns id;
  Mutex.unlock flush_mutex

let flush_all () =
  (* snapshot under the lock, run outside it: a thunk may take its own
     writer mutex, and a slow flush must not block registration *)
  Mutex.lock flush_mutex;
  let fns = Hashtbl.fold (fun _ f acc -> f :: acc) flush_fns [] in
  Mutex.unlock flush_mutex;
  List.iter (fun f -> try f () with _ -> ()) fns

let signals_installed = ref false

let flush_on_signals () =
  if not !signals_installed then begin
    signals_installed := true;
    let handle signo =
      flush_all ();
      exit (if signo = Sys.sigint then 130 else if signo = Sys.sigterm then 143 else 1)
    in
    List.iter
      (fun signo ->
        try ignore (Sys.signal signo (Sys.Signal_handle handle))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ]
  end

let jsonl oc =
  {
    emit =
      (fun e ->
        output_string oc (Json.to_string (event_to_json e));
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

let to_file path =
  let oc = open_out path in
  let inner = jsonl oc in
  let fid = register_flush (fun () -> flush oc) in
  {
    emit = inner.emit;
    close =
      (fun () ->
        unregister_flush fid;
        inner.close ();
        close_out_noerr oc);
  }

(* ----------------------- domain-safe plumbing ---------------------- *)

type writer = { w_mutex : Mutex.t; w_oc : out_channel; w_owns : bool; w_flush_id : int }

(* The registered thunk uses [try_lock]: if a signal lands while some
   domain is mid-[writer_lines], skipping the flush keeps the output free
   of torn lines (the runtime's own channel flushing still runs via
   [exit]); the handler must never block on a mutex its interrupted
   thread may hold. *)
let make_writer oc owns =
  let m = Mutex.create () in
  let id =
    register_flush (fun () ->
        if Mutex.try_lock m then
          Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> flush oc))
  in
  { w_mutex = m; w_oc = oc; w_owns = owns; w_flush_id = id }

let writer oc = make_writer oc false
let writer_to_file path = make_writer (open_out path) true

let with_writer w f =
  Mutex.lock w.w_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.w_mutex) f

let writer_lines w s = if String.length s > 0 then with_writer w (fun () -> output_string w.w_oc s)

let writer_close w =
  unregister_flush w.w_flush_id;
  with_writer w (fun () ->
      flush w.w_oc;
      if w.w_owns then close_out_noerr w.w_oc)

let buffered_jsonl ?(flush_bytes = 1 lsl 16) w =
  let buf = Buffer.create 4096 in
  let flush_buf () =
    if Buffer.length buf > 0 then begin
      writer_lines w (Buffer.contents buf);
      Buffer.clear buf
    end
  in
  {
    emit =
      (fun e ->
        Json.emit buf (event_to_json e);
        Buffer.add_char buf '\n';
        if Buffer.length buf >= flush_bytes then flush_buf ());
    close = (fun () -> flush_buf ());
  }

