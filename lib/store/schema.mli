(** Table schemas: an ordered list of named, typed columns. *)

type column = { name : string; ty : Value.ty }

type t

val create : column list -> t
(** Raises [Invalid_argument] on duplicate column names or an empty list. *)

val columns : t -> column list
val arity : t -> int

val index : t -> string -> int
(** Position of a column. Raises [Not_found]. *)

val index_opt : t -> string -> int option
val column_ty : t -> string -> Value.ty

val validate_value : t -> string -> Value.t -> (unit, string) result
(** Checks a value against a column's type. Raises [Not_found] on an
    unknown column. *)

val validate_row : t -> Value.t array -> (unit, string) result
(** Checks arity and per-column types. *)

val pp : Format.formatter -> t -> unit
