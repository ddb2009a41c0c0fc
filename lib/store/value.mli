(** Typed cell values for the local database engine. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = Tint | Tfloat | Tstr | Tbool

val type_of : t -> ty
val ty_name : ty -> string

val equal : t -> t -> bool

val add_int : t -> int -> t
(** [add_int (Int n) d = Int (n + d)]; [add_int (Float x) d] adds onto the
    float. Raises [Invalid_argument] on non-numeric values. *)

val as_int : t -> int
(** Raises [Invalid_argument] if the value is not an [Int]. *)

val as_float : t -> float
(** Accepts [Int] and [Float]. *)

val as_string : t -> string
val as_bool : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val encode : t -> string
(** Reversible single-line encoding, used by the write-ahead log. *)

val encode_into : Buffer.t -> t -> unit
(** Appends exactly what {!encode} returns — the allocation-free spelling
    for bulk serialisation (hex escaping writes nibbles directly). *)

val decode : string -> (t, string) result
