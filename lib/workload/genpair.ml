(* Matched MiniJava/MiniFun program pairs for the cross-frontend
   equivalence property.

   Each pair renders the same set of heap scenarios in both surface
   languages, with per-scenario query variables whose names are unique
   program-wide. A scenario is either monomorphic (the query variable can
   reach exactly one non-null allocation site) or polymorphic (two sites),
   and the two renderings are built to have the same answer — so every
   engine, at any job count, must return the same
   verdict for the same query on either half of the pair.

   The shapes deliberately exercise what each frontend lowers differently:
   MiniFun ref cells vs. a MiniJava field, [if]-merges, Ok/Err vs. a
   subtyped result hierarchy, and closure [apply] dispatch vs. virtual
   dispatch on a class hierarchy. *)

type kind = Cell | Select | Wrap | App

type query_spec = {
  q_var : string;  (* unique across the whole program, both halves *)
  q_mono : bool;  (* true: exactly one non-null site; false: two *)
  q_kind : kind;
}

type pair = {
  p_name : string;
  p_seed : int;
  p_mjava : string;
  p_minifun : string;
  p_queries : query_spec list;
}

let kind_name = function Cell -> "cell" | Select -> "select" | Wrap -> "wrap" | App -> "app"

(* ------------------------- MiniJava rendering ------------------------ *)

let mj_classes buf i kind =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "class PayA%d { int tag; PayA%d() { this.tag = 0; } }\n" i i;
  (match kind with
  | Cell | Select | Wrap | App -> ());
  (match kind with
  | Cell ->
    p "class PayB%d { int tag; PayB%d() { this.tag = 1; } }\n" i i;
    p "class Cell%d { Object val; Cell%d() { this.val = null; } }\n" i i
  | Select -> p "class PayB%d { int tag; PayB%d() { this.tag = 1; } }\n" i i
  | Wrap ->
    p "class PayB%d { int tag; PayB%d() { this.tag = 1; } }\n" i i;
    p "class Res%d { Object value; Res%d() { this.value = null; } }\n" i i;
    p "class ResOk%d extends Res%d { ResOk%d() { } }\n" i i i;
    p "class ResErr%d extends Res%d { ResErr%d() { } }\n" i i i
  | App ->
    p "class Fn%d { Fn%d() { } Object call(Object x) { return x; } }\n" i i;
    p "class FnA%d extends Fn%d { FnA%d() { } Object call(Object x) { return x; } }\n" i i i;
    p "class FnB%d extends Fn%d { FnB%d() { } Object call(Object x) { return x; } }\n" i i i)

let mj_scenario buf i kind mono =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "  void s%d() {\n" i;
  (match kind with
  | Cell ->
    p "    PayA%d pa%d = new PayA%d();\n" i i i;
    p "    Cell%d c%d = new Cell%d();\n" i i i;
    p "    c%d.val = pa%d;\n" i i;
    if not mono then begin
      p "    PayB%d pb%d = new PayB%d();\n" i i i;
      p "    c%d.val = pb%d;\n" i i
    end;
    p "    Object qcell%d = c%d.val;\n" i i
  | Select ->
    p "    PayA%d pa%d = new PayA%d();\n" i i i;
    p "    Object qsel%d = pa%d;\n" i i;
    if not mono then begin
      p "    PayB%d pb%d = new PayB%d();\n" i i i;
      p "    if (this.flip > 0) { qsel%d = pb%d; } else { }\n" i i
    end
  | Wrap ->
    p "    PayA%d pw%d = new PayA%d();\n" i i i;
    p "    ResOk%d ok%d = new ResOk%d();\n" i i i;
    p "    ok%d.value = pw%d;\n" i i;
    p "    Res%d r%d = ok%d;\n" i i i;
    if not mono then begin
      p "    PayB%d pv%d = new PayB%d();\n" i i i;
      p "    ResErr%d er%d = new ResErr%d();\n" i i i;
      p "    er%d.value = pv%d;\n" i i;
      p "    if (this.flip > 0) { r%d = er%d; } else { }\n" i i
    end;
    p "    Object qwrap%d = r%d.value;\n" i i
  | App ->
    p "    Fn%d fa%d = new FnA%d();\n" i i i;
    p "    Fn%d fb%d = new FnB%d();\n" i i i;
    p "    Fn%d qapp%d = fa%d;\n" i i i;
    if not mono then p "    if (this.flip > 0) { qapp%d = fb%d; } else { }\n" i i;
    p "    PayA%d px%d = new PayA%d();\n" i i i;
    p "    Object qres%d = qapp%d.call(px%d);\n" i i i);
  p "  }\n"

let render_mjava name scenarios =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "// genpair %s: MiniJava half\n" name;
  List.iter (fun (i, kind, _) -> mj_classes buf i kind) scenarios;
  p "class Scen {\n  int flip;\n  Scen() { this.flip = 1; }\n";
  List.iter (fun (i, kind, mono) -> mj_scenario buf i kind mono) scenarios;
  p "}\nclass Main {\n  static void main() {\n    Scen t = new Scen();\n";
  List.iter (fun (i, _, _) -> p "    t.s%d();\n" i) scenarios;
  p "  }\n}\n";
  Buffer.contents buf

(* ------------------------- MiniFun rendering ------------------------- *)

let mf_scenario buf i kind mono =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "let scen%d = fun scen%d () ->\n" i i;
  (match (kind, mono) with
  | Cell, true ->
    p "  let pa%d = ref 0 in\n" i;
    p "  let c%d = ref pa%d in\n" i i;
    p "  let qcell%d = !c%d in 0;;\n" i i
  | Cell, false ->
    p "  let pa%d = ref 0 in\n" i;
    p "  let c%d = ref pa%d in\n" i i;
    p "  let pb%d = ref 0 in\n" i;
    p "  let u%d = c%d := pb%d in\n" i i i;
    p "  let qcell%d = !c%d in 0;;\n" i i
  | Select, true ->
    p "  let pa%d = ref 0 in\n" i;
    p "  let qsel%d = pa%d in 0;;\n" i i
  | Select, false ->
    p "  let pa%d = ref 0 in\n" i;
    p "  let pb%d = ref 0 in\n" i;
    p "  let qsel%d = if 1 > 0 then pa%d else pb%d in 0;;\n" i i i
  | Wrap, true ->
    p "  let pw%d = ref 0 in\n" i;
    p "  let r%d = Ok(pw%d) in\n" i i;
    p "  let qwrap%d = match r%d with | Ok(x%d) -> x%d | Err(y%d) -> y%d end in 0;;\n" i i i i i i
  | Wrap, false ->
    p "  let pw%d = ref 0 in\n" i;
    p "  let pv%d = ref 0 in\n" i;
    p "  let r%d = if 1 > 0 then Ok(pw%d) else Err(pv%d) in\n" i i i;
    p "  let qwrap%d = match r%d with | Ok(x%d) -> x%d | Err(y%d) -> y%d end in 0;;\n" i i i i i i
  | App, mono ->
    p "  let ida%d = fun ida%d (ax%d) -> ax%d in\n" i i i i;
    p "  let idb%d = fun idb%d (bx%d) -> bx%d in\n" i i i i;
    if mono then p "  let qapp%d = ida%d in\n" i i
    else p "  let qapp%d = if 1 > 0 then ida%d else idb%d in\n" i i i;
    p "  let qres%d = qapp%d(ref 0) in 0;;\n" i i)

let render_minifun name scenarios =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "// genpair %s: MiniFun half\n" name;
  List.iter (fun (i, kind, mono) -> mf_scenario buf i kind mono) scenarios;
  p "let main = fun main () ->\n  (";
  List.iteri
    (fun j (i, _, _) ->
      if j > 0 then p "; ";
      p "scen%d()" i)
    scenarios;
  p "; 0);;\n";
  Buffer.contents buf

(* ------------------------------ driver ------------------------------- *)

let query_of (i, kind, mono) =
  let prefix = match kind with Cell -> "qcell" | Select -> "qsel" | Wrap -> "qwrap" | App -> "qapp" in
  { q_var = Printf.sprintf "%s%d" prefix i; q_mono = mono; q_kind = kind }

let generate ?(scenarios = 8) ~name ~seed () =
  if scenarios < 2 then invalid_arg "Genpair.generate: need at least 2 scenarios";
  let rng = Random.State.make [| seed |] in
  let kinds = [| App; Cell; Select; Wrap |] in
  let scens =
    List.init scenarios (fun i ->
        (* scenario 0 is always a monomorphic apply (so Devirtopt has a
           beyond-CHA rewrite to make) and scenario 1 a polymorphic one;
           the rest draw from the seeded RNG *)
        let kind = kinds.(i mod Array.length kinds) in
        let mono = if i = 0 then true else if i = 1 then false else Random.State.bool rng in
        let kind = if i <= 1 then App else kind in
        (i, kind, mono))
  in
  {
    p_name = name;
    p_seed = seed;
    p_mjava = render_mjava name scens;
    p_minifun = render_minifun name scens;
    p_queries = List.map query_of scens;
  }

let describe p =
  Printf.sprintf "%s: %d scenarios (%s), seed %d" p.p_name (List.length p.p_queries)
    (String.concat ","
       (List.map (fun q -> Printf.sprintf "%s/%s" (kind_name q.q_kind) (if q.q_mono then "mono" else "poly")) p.p_queries))
    p.p_seed

(* The committed pair suite: small/medium/large, fixed seeds. *)
let configs = [ ("pair-s", 201, 4); ("pair-m", 202, 8); ("pair-l", 203, 12) ]

let names = List.map (fun (n, _, _) -> n) configs

let get name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) configs with
  | Some (n, seed, scenarios) -> generate ~scenarios ~name:n ~seed ()
  | None -> raise Not_found
