module Prng = Pts_util.Prng

(* Seeded edit-script generation over a frozen (possibly already edited)
   PAG: the IDE/CI workload of method-body rewrites (assign/load/store
   churn inside methods) and added/removed call edges (entry/exit).
   Deletions are drawn from the edges currently visible in the view,
   insertions from harvested node/field/site pools, so a script is a
   pure function of (seed, graph state) — the incremental side and the
   from-scratch rebuild replay identical scripts. *)

(* Harvest every edge in the current view as a deletable edit, scanning
   in-sides in ascending node order for determinism. [Enew] edges are
   included — deleting an allocation is a legal rewrite — but never
   generated as insertions (re-adding one must respect the unique-
   destination invariant, which deletions of other kinds never break). *)
let existing_edges pag =
  let acc = ref [] in
  for v = 0 to Pag.node_count pag - 1 do
    let row side edit = acc := Pag.View.fold pag side v (fun a x acc -> edit a x :: acc) !acc in
    row Pag.View.new_in (fun _ o -> Pag.Enew { obj_ = o; dst = v });
    row Pag.View.assign_in (fun _ s -> Pag.Eassign { src = s; dst = v });
    row Pag.View.global_in (fun _ s -> Pag.Eglobal { src = s; dst = v });
    row Pag.View.load_in (fun f b -> Pag.Eload { base = b; fld = f; dst = v });
    row Pag.View.store_in (fun f s -> Pag.Estore { base = v; fld = f; src = s });
    row Pag.View.entry_in (fun i a -> Pag.Eentry { site = i; actual = a; formal = v });
    row Pag.View.exit_in (fun i r -> Pag.Eexit { site = i; retval = r; dst = v })
  done;
  Array.of_list (List.rev !acc)

(* Pools for insertions: locals grouped per method (assigns stay
   intra-method, like the builder produces), globals, and the field and
   call-site ids already in use (fresh ids would never interact with the
   existing program). *)
type pools = {
  method_locals : Pag.node array array; (* methods with >= 2 locals *)
  locals : Pag.node array;
  globals : Pag.node array;
  fields : int array;
  sites : int array;
}

let pools pag =
  let prog = Pag.program pag in
  let per_method =
    Array.to_list prog.Ir.methods
    |> List.filter_map (fun (m : Ir.meth) ->
           if m.Ir.nvars < 2 then None
           else
             Some
               (Array.init m.Ir.nvars (fun v -> Pag.local_node pag ~meth:m.Ir.id ~var:v)))
  in
  let locals = ref [] and globals = ref [] in
  for n = Pag.node_count pag - 1 downto 0 do
    match Pag.kind pag n with
    | Pag.Local _ -> locals := n :: !locals
    | Pag.Global _ -> globals := n :: !globals
    | Pag.Obj _ -> ()
  done;
  let fields = Hashtbl.create 16 and sites = Hashtbl.create 16 in
  for v = 0 to Pag.node_count pag - 1 do
    let note h side = Pag.View.fold pag side v (fun a _ () -> Hashtbl.replace h a ()) () in
    note fields Pag.View.load_in;
    note fields Pag.View.store_in;
    note sites Pag.View.entry_in;
    note sites Pag.View.exit_in
  done;
  let sorted_keys h = Hashtbl.fold (fun k () acc -> k :: acc) h [] |> List.sort compare in
  {
    method_locals = Array.of_list per_method;
    locals = Array.of_list !locals;
    globals = Array.of_list !globals;
    fields = Array.of_list (sorted_keys fields);
    sites = Array.of_list (sorted_keys sites);
  }

let gen_insert rng p =
  let two_locals_same_method () =
    let vars = Prng.choose rng p.method_locals in
    let a = Prng.choose rng vars and b = Prng.choose rng vars in
    (a, b)
  in
  let local () = Prng.choose rng p.locals in
  let cases =
    List.concat
      [
        (if Array.length p.method_locals > 0 then
           [
             ( 4,
               fun () ->
                 let src, dst = two_locals_same_method () in
                 Pag.Eassign { src; dst } );
           ]
         else []);
        (if Array.length p.globals > 0 && Array.length p.locals > 0 then
           [
             ( 2,
               fun () ->
                 let g = Prng.choose rng p.globals and l = local () in
                 if Prng.bool rng then Pag.Eglobal { src = l; dst = g }
                 else Pag.Eglobal { src = g; dst = l } );
           ]
         else []);
        (if Array.length p.fields > 0 && Array.length p.locals > 0 then
           [
             ( 3,
               fun () ->
                 let f = Prng.choose rng p.fields in
                 if Prng.bool rng then
                   Pag.Eload { base = local (); fld = f; dst = local () }
                 else Pag.Estore { base = local (); fld = f; src = local () } );
           ]
         else []);
        (if Array.length p.sites > 0 && Array.length p.locals > 0 then
           [
             ( 2,
               fun () ->
                 let i = Prng.choose rng p.sites in
                 if Prng.bool rng then
                   Pag.Eentry { site = i; actual = local (); formal = local () }
                 else Pag.Eexit { site = i; retval = local (); dst = local () } );
           ]
         else []);
      ]
  in
  match cases with [] -> None | _ -> Some ((Prng.weighted rng cases) ())

let burst rng pag ~n =
  let edges = existing_edges pag in
  let p = pools pag in
  let edits = ref [] in
  for _ = 1 to n do
    let del =
      Array.length edges > 0 && (Prng.bool rng || Array.length p.locals = 0)
    in
    if del then edits := Pag.Edel (Prng.choose rng edges) :: !edits
    else
      match gen_insert rng p with
      | Some k -> edits := Pag.Eadd k :: !edits
      | None -> ()
  done;
  List.rev !edits
