let escape s =
  String.concat ""
    (List.map
       (fun c -> match c with '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* the three classification flags between them cover all fourteen sides *)
let touched pag n = Pag.has_local_edges pag n || Pag.has_global_in pag n || Pag.has_global_out pag n

let pag ?(max_nodes = 400) pag_ =
  let prog = Pag.program pag_ in
  let lang = Loc.lang_name prog.Ir.lang in
  let buf = Buffer.create 8192 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph pag {\n  rankdir=LR;\n  node [fontsize=9];\n";
  pr "  label=\"source language: %s\";\n  labelloc=t;\n" (escape lang);
  let included = Hashtbl.create 256 in
  let count = ref 0 in
  for n = 0 to Pag.node_count pag_ - 1 do
    if touched pag_ n && !count < max_nodes then begin
      Hashtbl.add included n ();
      incr count;
      (* Allocation nodes carry their provenance: which method allocated,
         at which source line of which language — so a graph mixing
         synthesized closure classes with user code stays attributable. *)
      let shape, style, label =
        match Pag.kind pag_ n with
        | Pag.Obj site ->
          let a = prog.Ir.allocs.(site) in
          let provenance =
            Printf.sprintf "\\n%s:%d in %s" lang a.Ir.alloc_pos.Loc.line
              (escape prog.Ir.methods.(a.Ir.alloc_meth).Ir.pretty)
          in
          ("box", ",style=filled,fillcolor=lightyellow",
           escape (Pag.node_name pag_ n) ^ provenance)
        | Pag.Global _ -> ("diamond", ",style=filled,fillcolor=lightblue", escape (Pag.node_name pag_ n))
        | Pag.Local _ -> ("ellipse", "", escape (Pag.node_name pag_ n))
      in
      pr "  n%d [label=\"%s\",shape=%s%s];\n" n label shape style
    end
  done;
  if !count >= max_nodes then pr "  // graph truncated at %d nodes\n" max_nodes;
  let mem n = Hashtbl.mem included n in
  let fld_name f = (Types.field_info prog.Ir.ctable f).Types.fld_name in
  for n = 0 to Pag.node_count pag_ - 1 do
    if mem n then begin
      let row side f = Pag.View.fold pag_ side n (fun a x () -> if mem x then f a x) () in
      row Pag.View.new_in (fun _ o -> pr "  n%d -> n%d [label=\"new\",penwidth=2];\n" o n);
      row Pag.View.assign_in (fun _ x -> pr "  n%d -> n%d [label=\"assign\"];\n" x n);
      row Pag.View.global_in (fun _ x ->
          pr "  n%d -> n%d [label=\"assignglobal\",style=dotted];\n" x n);
      row Pag.View.load_in (fun f b ->
          pr "  n%d -> n%d [label=\"load(%s)\",color=darkgreen];\n" b n (escape (fld_name f)));
      row Pag.View.store_in (fun f s ->
          pr "  n%d -> n%d [label=\"store(%s)\",color=brown];\n" s n (escape (fld_name f)));
      let call label i x =
        pr "  n%d -> n%d [label=\"%s%d\",style=dashed%s];\n" x n label i
          (if Pag.is_recursive_site pag_ i then ",color=red" else "")
      in
      row Pag.View.entry_in (call "entry");
      row Pag.View.exit_in (call "exit")
    end
  done;
  pr "}\n";
  Buffer.contents buf

let callgraph prog cg =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph callgraph {\n  node [fontsize=10,shape=box];\n";
  let mentioned = Hashtbl.create 64 in
  Callgraph.iter_edges cg (fun ~site:_ ~caller ~target ->
      Hashtbl.replace mentioned caller ();
      Hashtbl.replace mentioned target ());
  Hashtbl.iter
    (fun m () -> pr "  m%d [label=\"%s\"];\n" m (escape prog.Ir.methods.(m).Ir.pretty))
    mentioned;
  let comp, _ = Callgraph.method_sccs cg in
  Callgraph.iter_edges cg (fun ~site ~caller ~target ->
      let recursive = comp.(caller) = comp.(target) in
      pr "  m%d -> m%d [label=\"%d\"%s];\n" caller target site
        (if recursive then ",color=red,penwidth=2" else ""));
  pr "}\n";
  Buffer.contents buf
