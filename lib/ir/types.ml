exception Error of string * Loc.pos

type cls = int

type field_info = {
  fld_id : int;
  fld_class : cls;
  fld_name : string;
  fld_typ : Ityp.typ;
}

type global_info = {
  glb_id : int;
  glb_class : cls;
  glb_name : string;
  glb_typ : Ityp.typ;
}

type method_sig = {
  ms_id : int;
  ms_class : cls;
  ms_name : string;
  ms_static : bool;
  ms_is_ctor : bool;
  ms_ret : Ityp.typ;
  ms_params : Ityp.typ list;
}

type class_info = {
  ci_id : cls;
  ci_name : string;
  mutable ci_super : cls option;
  mutable ci_fields : (string * field_info) list;
  mutable ci_globals : (string * global_info) list;
  mutable ci_methods : (string * method_sig) list;
  mutable ci_ctors : method_sig list;
  ci_is_array : bool;
}

type t = {
  names : (string, cls) Hashtbl.t;
  mutable infos : class_info array;
  mutable n_classes : int;
  mutable fields : field_info list; (* reversed *)
  mutable n_fields : int;
  mutable globals_rev : global_info list;
  mutable n_globals : int;
  mutable sigs : method_sig list; (* reversed *)
  mutable n_methods : int;
  arr_cache : (Ityp.typ, cls) Hashtbl.t;
  mutable arr : field_info option;
  mutable c_null : cls;
}

let err msg pos = raise (Error (msg, pos))

let info t c =
  if c < 0 || c >= t.n_classes then invalid_arg "Types: unknown class id";
  t.infos.(c)

let declare_class_raw t name ~is_array =
  if Hashtbl.mem t.names name then None
  else begin
    let id = t.n_classes in
    let cap = Array.length t.infos in
    if id >= cap then begin
      let infos =
        Array.make (max 8 (2 * cap))
          { ci_id = -1; ci_name = ""; ci_super = None; ci_fields = []; ci_globals = [];
            ci_methods = []; ci_ctors = []; ci_is_array = false }
      in
      Array.blit t.infos 0 infos 0 t.n_classes;
      t.infos <- infos
    end;
    t.infos.(id) <-
      { ci_id = id; ci_name = name; ci_super = None; ci_fields = []; ci_globals = [];
        ci_methods = []; ci_ctors = []; ci_is_array = is_array };
    t.n_classes <- id + 1;
    Hashtbl.add t.names name id;
    Some id
  end

let declare_class t name pos =
  match declare_class_raw t name ~is_array:false with
  | Some id -> id
  | None -> err (Printf.sprintf "class %s is already declared" name) pos

let find_class t name = Hashtbl.find_opt t.names name

let find_class_exn t name pos =
  match find_class t name with
  | Some c -> c
  | None -> err (Printf.sprintf "unknown class %s" name) pos

let class_name t c = (info t c).ci_name
let classes t = List.init t.n_classes (fun i -> i)
let null_class t = t.c_null
let is_array_class t c = (info t c).ci_is_array

let super t c = (info t c).ci_super

let rec subclass t c d =
  if c = d then true
  else match super t c with None -> false | Some s -> subclass t s d

let set_super t c s pos =
  if subclass t s c then
    err (Printf.sprintf "inheritance cycle through class %s" (class_name t c)) pos;
  (info t c).ci_super <- Some s

let create () =
  let t =
    {
      names = Hashtbl.create 64;
      infos = [||];
      n_classes = 0;
      fields = [];
      n_fields = 0;
      globals_rev = [];
      n_globals = 0;
      sigs = [];
      n_methods = 0;
      arr_cache = Hashtbl.create 8;
      arr = None;
      c_null = -1;
    }
  in
  (* The null pseudo-class is internal; Object/String come from the prelude
     source so they behave like ordinary classes. *)
  (match declare_class_raw t Ityp.null_class ~is_array:false with
  | Some c -> t.c_null <- c
  | None -> assert false);
  (* The collapsed array-element field (§2 of the paper): all array classes
     share this single field id. It is not a member of any class; lowering
     uses it directly for every array element access. *)
  let arr = { fld_id = 0; fld_class = t.c_null; fld_name = "arr"; fld_typ = Ityp.Tclass Ityp.object_class } in
  t.arr <- Some arr;
  t.fields <- [ arr ];
  t.n_fields <- 1;
  t

let arr_field t = match t.arr with Some f -> f | None -> assert false

let object_class t =
  match find_class t Ityp.object_class with
  | Some c -> c
  | None -> invalid_arg "Types.object_class: prelude not loaded"

let string_class t =
  match find_class t Ityp.string_class with
  | Some c -> c
  | None -> invalid_arg "Types.string_class: prelude not loaded"

let add_field t c ~name ~typ pos =
  let ci = info t c in
  if List.mem_assoc name ci.ci_fields || List.mem_assoc name ci.ci_globals then
    err (Printf.sprintf "field %s.%s is already declared" ci.ci_name name) pos;
  let f = { fld_id = t.n_fields; fld_class = c; fld_name = name; fld_typ = typ } in
  t.fields <- f :: t.fields;
  t.n_fields <- t.n_fields + 1;
  ci.ci_fields <- (name, f) :: ci.ci_fields;
  f

let add_global t c ~name ~typ pos =
  let ci = info t c in
  if List.mem_assoc name ci.ci_fields || List.mem_assoc name ci.ci_globals then
    err (Printf.sprintf "field %s.%s is already declared" ci.ci_name name) pos;
  let g = { glb_id = t.n_globals; glb_class = c; glb_name = name; glb_typ = typ } in
  t.globals_rev <- g :: t.globals_rev;
  t.n_globals <- t.n_globals + 1;
  ci.ci_globals <- (name, g) :: ci.ci_globals;
  g

let rec lookup_field t c name =
  let ci = info t c in
  match List.assoc_opt name ci.ci_fields with
  | Some f -> Some (`Instance f)
  | None -> (
    match List.assoc_opt name ci.ci_globals with
    | Some g -> Some (`Static g)
    | None -> ( match ci.ci_super with Some s -> lookup_field t s name | None -> None))

let field_count t = t.n_fields

let field_info t id =
  if id < 0 || id >= t.n_fields then invalid_arg "Types.field_info: unknown id";
  List.nth t.fields (t.n_fields - 1 - id)

let global_count t = t.n_globals

let global_info t id =
  if id < 0 || id >= t.n_globals then invalid_arg "Types.global_info: unknown id";
  List.nth t.globals_rev (t.n_globals - 1 - id)

let globals t = List.rev t.globals_rev

let add_method t c ~name ~static ~is_ctor ~ret ~params pos =
  let ci = info t c in
  let ms =
    { ms_id = t.n_methods; ms_class = c; ms_name = name; ms_static = static; ms_is_ctor = is_ctor;
      ms_ret = ret; ms_params = params }
  in
  if is_ctor then begin
    (* Constructors may be overloaded by arity (the paper's Figure 2 example
       declares both [Client()] and [Client(Vector)]). *)
    let arity = List.length params in
    if List.exists (fun m -> List.length m.ms_params = arity) ci.ci_ctors then
      err (Printf.sprintf "class %s already has a %d-argument constructor" ci.ci_name arity) pos;
    ci.ci_ctors <- ms :: ci.ci_ctors
  end
  else begin
    if List.mem_assoc name ci.ci_methods then
      err (Printf.sprintf "method %s.%s is already declared (no overloading)" ci.ci_name name) pos;
    ci.ci_methods <- (name, ms) :: ci.ci_methods
  end;
  t.sigs <- ms :: t.sigs;
  t.n_methods <- t.n_methods + 1;
  ms

let rec lookup_method t c name =
  let ci = info t c in
  match List.assoc_opt name ci.ci_methods with
  | Some ms -> Some ms
  | None -> ( match ci.ci_super with Some s -> lookup_method t s name | None -> None)

let constructors t c = List.rev (info t c).ci_ctors

let constructor t c arity =
  List.find_opt (fun m -> List.length m.ms_params = arity) (info t c).ci_ctors

let method_count t = t.n_methods

let method_sig t id =
  if id < 0 || id >= t.n_methods then invalid_arg "Types.method_sig: unknown id";
  List.nth t.sigs (t.n_methods - 1 - id)

let method_pretty t ms = Printf.sprintf "%s.%s" (class_name t ms.ms_class) ms.ms_name

let rec array_class t elem =
  match Hashtbl.find_opt t.arr_cache elem with
  | Some c -> c
  | None ->
    (* Normalise nested element classes first so names are deterministic. *)
    (match elem with Ityp.Tarray inner -> ignore (array_class t inner) | _ -> ());
    let name = Format.asprintf "%a[]" Ityp.pp_typ elem in
    let c =
      match declare_class_raw t name ~is_array:true with
      | Some c ->
        t.infos.(c).ci_super <- Some (object_class t);
        c
      | None -> ( match find_class t name with Some c -> c | None -> assert false)
    in
    Hashtbl.add t.arr_cache elem c;
    c

let class_of_typ t = function
  | Ityp.Tclass name -> find_class t name
  | Ityp.Tarray elem -> Some (array_class t elem)
  | Ityp.Tint | Ityp.Tbool | Ityp.Tvoid -> None

let rec subtype t a b =
  match (a, b) with
  | Ityp.Tint, Ityp.Tint | Ityp.Tbool, Ityp.Tbool | Ityp.Tvoid, Ityp.Tvoid -> true
  | Ityp.Tclass ca, Ityp.Tclass cb -> (
    match (find_class t ca, find_class t cb) with
    | Some ia, Some ib -> subclass t ia ib
    | _ -> false)
  | Ityp.Tarray ea, Ityp.Tarray eb -> subtype t ea eb (* covariant, as in Java *)
  | Ityp.Tarray _, Ityp.Tclass cb -> String.equal cb Ityp.object_class
  | (Ityp.Tint | Ityp.Tbool | Ityp.Tvoid | Ityp.Tclass _ | Ityp.Tarray _), _ -> false
