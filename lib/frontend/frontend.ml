module Mj = Pts_frontend_mjava
module Mf = Pts_frontend_minifun

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let wrap lang f =
  let at what msg (pos : Loc.pos) = fail "%d:%d: %s%s" pos.Loc.line pos.Loc.col what msg in
  match lang with
  | Loc.Mjava -> (
    try f () with
    | Mj.Lexer.Error (msg, pos) -> at "lexical error: " msg pos
    | Mj.Parser.Error (msg, pos) -> at "syntax error: " msg pos
    | Mj.Lower.Error (msg, pos) -> at "" msg pos
    | Types.Error (msg, pos) -> at "" msg pos)
  | Loc.Minifun -> (
    try f () with
    | Mf.Mf_lexer.Error (msg, pos) -> at "lexical error: " msg pos
    | Mf.Mf_parser.Error (msg, pos) -> at "syntax error: " msg pos
    | Mf.Mf_lower.Error (msg, pos) -> at "" msg pos
    | Types.Error (msg, pos) -> at "" msg pos)

let compile ?(lang = Loc.Mjava) source =
  wrap lang (fun () ->
      match lang with
      | Loc.Mjava ->
        let user = Mj.Parser.parse_program source in
        Mj.Lower.lower_program (Lazy.force Mj.Prelude.ast @ user)
      | Loc.Minifun -> Mf.Mf_lower.lower_program (Mf.Mf_parser.parse_program source))

let comments ?(lang = Loc.Mjava) source =
  match lang with
  | Loc.Mjava -> Mj.Lexer.comments source
  | Loc.Minifun -> Mf.Mf_lexer.comments source

let annotations ?lang source =
  List.filter_map
    (fun (text, pos) -> if String.contains text '@' then Some (String.trim text, pos) else None)
    (comments ?lang source)

let lang_of_path path =
  if Filename.check_suffix path ".mf" || Filename.check_suffix path ".minifun" then Loc.Minifun
  else Loc.Mjava

let compile_file ?lang path =
  let source =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> fail "cannot read %s: %s" path msg
  in
  let lang = match lang with Some l -> l | None -> lang_of_path path in
  compile ~lang source
