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
    adding through it walks no B-tree and looks up no column name. It
    holds the stored row itself, so it sees every write made by name
    ({!set_col}, {!add_int}, an aborted transaction's undo) and its own
    writes are seen by name, indexes included.

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
(** Sorted (the row store is an ordered B-tree). *)

val range : t -> lo:string -> hi:string -> (string * Value.t array) list
(** Rows with [lo <= key <= hi] in key order, as defensive copies. *)

val iter : t -> (string -> Value.t array -> unit) -> unit
val fold : t -> init:'a -> f:('a -> string -> Value.t array -> 'a) -> 'a

val copy : t -> t
(** Deep copy (snapshot), including secondary indexes. *)

(** {2 Secondary indexes}

    An index maps a column's values to the keys of the rows holding them,
    ordered by {!Value.compare}. Indexes are maintained automatically by
    every mutation ([insert], [set_col], [add_int], [delete]). *)

val create_index : t -> col:string -> (unit, string) result
(** Builds an index over existing rows. Fails on unknown columns or if
    the index already exists. *)

val drop_index : t -> col:string -> unit
val indexed_columns : t -> string list
(** Sorted. *)

val lookup_eq : t -> col:string -> Value.t -> string list option
(** Keys of rows whose column equals the value, sorted — [None] when the
    column has no index. *)

val lookup_range : t -> col:string -> ?lo:Value.t -> ?hi:Value.t -> unit -> string list option
(** Keys of rows with [lo <= column <= hi] (either bound optional),
    ordered by column value then key — [None] when not indexed. *)

val equal_contents : t -> t -> bool
(** Same keys and equal rows, schemas compared by column names/types. *)
