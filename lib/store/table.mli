(** A single keyed table: primary key (string) to row, schema-checked. *)

type t

val create : name:string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

val insert : t -> key:string -> Value.t array -> (unit, string) result
(** Fails if the key exists or the row does not match the schema. *)

val get : t -> key:string -> Value.t array option
(** A defensive copy: mutating the result does not affect the table. *)

val get_col : t -> key:string -> col:string -> (Value.t, string) result

val set_col : t -> key:string -> col:string -> Value.t -> (Value.t, string) result
(** Returns the previous value. Fails on a missing key, unknown column or
    type mismatch. *)

val add_int : t -> key:string -> col:string -> int -> (int, string) result
(** Adds a delta to a numeric column; returns the new value as int
    (truncated for float columns). *)

val add_int_swap : t -> key:string -> col:string -> int -> (Value.t * Value.t, string) result
(** Like {!add_int} but returns [(before, after)] from a single row
    lookup — the write path's fast primitive (the WAL needs both sides).
    A lookup followed by {!handle_add}'s body. *)

val delete : t -> key:string -> Value.t array option
(** Returns the removed row, or [None] if the key was absent. *)

(** {2 Column handles}

    A handle is one column of one stored row, resolved once: reading or
    adding through it looks up neither the key nor the column name. It
    holds the stored row itself, so it sees every write made by name
    ({!set_col}, {!add_int}, an aborted transaction's undo) and its own
    writes are seen by name.

    A handle stays live until the table removes a row, any row: a removed
    row's array is no longer stored, and a key inserted again gets a new
    one. The table counts its removals and a handle compares that count
    with the one it was taken at, so [Database.abort] of an insert also
    ends every handle on the table. Take a fresh handle then. *)

type handle

val handle : t -> key:string -> col:string -> handle
(** Raises [Not_found] on a missing key or an unknown column. *)

val handle_live : handle -> bool
(** No row has been removed from the handle's table since it was taken. *)

val handle_table : handle -> t
val handle_key : handle -> string
val handle_col : handle -> string

val handle_get : handle -> Value.t
(** The column's current value. Raises [Invalid_argument] on a handle that
    is not live. *)

val handle_add : handle -> int -> Value.t
(** {!add_int_swap} through the handle: adds in place and returns the value
    it replaced (read the new one with {!handle_get}). The named form
    shares its body. Raises [Invalid_argument] on a handle that is not live
    or a non-numeric column. *)

val mem : t -> key:string -> bool
val size : t -> int
val keys : t -> string list
(** In ascending [String.compare] order, the order {!iter} and {!fold}
    visit the rows in: a snapshot or an export built from them does not
    depend on the order the rows were inserted in. *)

val iter : t -> (string -> Value.t array -> unit) -> unit

val fold : t -> init:'a -> f:('a -> string -> Value.t array -> 'a) -> 'a
(** {!iter} and [fold] hand over the stored row arrays, not copies: a
    caller that keeps one past a later write copies it first. *)

val copy : t -> t
(** Deep copy (snapshot). *)

val equal_contents : t -> t -> bool
(** Same keys and equal rows; the schemas are not compared. *)
