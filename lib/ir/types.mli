(** Class table: the program's class hierarchy, fields, globals and method
    signatures, shared by the semantic checker, the lowering pass, the PAG
    builder, and the clients.

    Instance fields are interned to dense ids program-wide (the analyses
    are field-sensitive on these ids). All array element accesses collapse
    to the single special field {!arr_field}, as in §2 of the paper. Static
    fields are the PAG's "globals" and get their own dense id space. *)

type t

type cls = int
(** Dense class id. *)

exception Error of string * Loc.pos

type field_info = {
  fld_id : int;
  fld_class : cls; (** declaring class *)
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
  ms_id : int; (** dense program-wide method id *)
  ms_class : cls;
  ms_name : string;
  ms_static : bool;
  ms_is_ctor : bool;
  ms_ret : Ityp.typ;
  ms_params : Ityp.typ list;
}

val create : unit -> t
(** A table that already knows [Object], [String] and the internal null
    pseudo-class. *)

(** {2 Classes} *)

val declare_class : t -> string -> Loc.pos -> cls
(** @raise Error if the name is already declared. *)

val find_class : t -> string -> cls option
val find_class_exn : t -> string -> Loc.pos -> cls
val class_name : t -> cls -> string
val classes : t -> cls list
val object_class : t -> cls
val string_class : t -> cls
val null_class : t -> cls
val is_array_class : t -> cls -> bool

val set_super : t -> cls -> cls -> Loc.pos -> unit
(** @raise Error if this would create a hierarchy cycle. *)

val super : t -> cls -> cls option
(** Direct superclass; [None] only for [Object] (and the null class). *)

val subclass : t -> cls -> cls -> bool
(** [subclass t c d] — is [c] equal to or a descendant of [d]? *)

val array_class : t -> Ityp.typ -> cls
(** Array class for the given element type, created on demand; its
    superclass is [Object]. *)

val class_of_typ : t -> Ityp.typ -> cls option
(** The class implementing a reference type ([Tclass] or [Tarray]); [None]
    for primitive types. Unknown class names yield [None]. *)

val subtype : t -> Ityp.typ -> Ityp.typ -> bool
(** Assignability: reflexive, class subtyping, covariant arrays (as in
    Java), any array type is a subtype of [Object]. Primitives are subtypes
    of themselves only. *)

(** {2 Fields} *)

val arr_field : t -> field_info
(** The special collapsed array-element field. *)

val add_field : t -> cls -> name:string -> typ:Ityp.typ -> Loc.pos -> field_info
(** Instance field. @raise Error on a duplicate in the same class. *)

val add_global : t -> cls -> name:string -> typ:Ityp.typ -> Loc.pos -> global_info
(** Static field. @raise Error on a duplicate in the same class. *)

val lookup_field : t -> cls -> string -> [ `Instance of field_info | `Static of global_info ] option
(** Walks the superclass chain. *)

val field_count : t -> int
val field_info : t -> int -> field_info
val global_count : t -> int
val global_info : t -> int -> global_info
val globals : t -> global_info list

(** {2 Methods} *)

val add_method :
  t -> cls -> name:string -> static:bool -> is_ctor:bool -> ret:Ityp.typ -> params:Ityp.typ list -> Loc.pos -> method_sig
(** @raise Error on a duplicate method name in the same class. Ordinary
    methods cannot be overloaded; constructors may be overloaded by arity
    (the paper's Figure 2 example needs this). *)

val lookup_method : t -> cls -> string -> method_sig option
(** Walks the superclass chain — this is also virtual dispatch: the result
    for a receiver class is the implementation that class inherits.
    Constructors are never returned. *)

val constructor : t -> cls -> int -> method_sig option
(** The class's own constructor of the given arity, if declared (not
    inherited). *)

val constructors : t -> cls -> method_sig list

val method_count : t -> int
val method_sig : t -> int -> method_sig

val method_pretty : t -> method_sig -> string
(** ["Vector.add"]. *)
