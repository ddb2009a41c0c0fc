(** A local database: named tables, write-ahead logging, transactions.

    Transactional mutations log to the WAL before touching tables
    (write-ahead rule) and keep an in-memory undo list, so [abort] rolls
    the tables back and [recover] rebuilds exactly the committed state from
    the log — including after the log loses its tail in a simulated crash. *)

type t

type txn

val create : ?name:string -> unit -> t
val name : t -> string
val wal : t -> Wal.t

val create_table : t -> name:string -> Schema.t -> Table.t
(** Logged, so recovery recreates it. Raises [Invalid_argument] if the
    table exists. *)

val table : t -> string -> Table.t
(** Raises [Not_found]. *)

val table_opt : t -> string -> Table.t option
val tables : t -> (string * Table.t) list
(** Sorted by name. *)

(** {2 Transactions}

    A [txn] must be finished with exactly one of [commit] or [abort];
    operations on a finished transaction raise [Invalid_argument]. *)

val begin_txn : t -> txn

val insert : txn -> table:string -> key:string -> Value.t array -> (unit, string) result
val set_col : txn -> table:string -> key:string -> col:string -> Value.t -> (unit, string) result

val add_int : txn -> table:string -> key:string -> col:string -> int -> (int, string) result
(** Returns the new column value. *)

val apply_int : t -> table:string -> key:string -> col:string -> int -> (int, string) result
(** Autocommit [add_int]: a complete single-operation transaction (one
    {!Wal.Apply} record in the WAL) from one row lookup, with none of the
    per-[txn] bookkeeping. *)

(** {2 Column handles}

    A {!Table.handle} tagged with the number of the database it was taken
    from. The handle forms below write exactly what their named forms
    write, WAL records included, and share their bodies; they skip the
    table, row and column lookups. A handle is live on a database while it
    was taken from that database and its table has removed no row since
    (see {!Table.handle}). Every database has its own number, one that
    {!recover} builds included, so a handle taken before a recovery is
    not live on the recovered database. It holds neither the database nor
    its log. *)

type handle

val handle : t -> table:string -> key:string -> col:string -> handle
(** Raises [Not_found] on a missing table, key or column. *)

val handle_live : t -> handle -> bool

val apply_int_handle : t -> handle -> int -> int
(** {!apply_int} through a handle: the write path of Delay Update. Returns
    the new value. Raises [Invalid_argument] on a handle that is not live
    on the database, or a non-numeric column. *)

val add_int_handle : txn -> handle -> int -> int
(** {!add_int} through a handle, with the same undo on {!abort}. Raises as
    {!apply_int_handle} does. *)

val get_int_handle : t -> handle -> int
(** {!get_col} of a numeric column through a handle, uncommitted writes
    included. Raises as {!apply_int_handle} does. *)

val delete : txn -> table:string -> key:string -> (unit, string) result

val get : t -> table:string -> key:string -> Value.t array option
(** Reads see the latest (possibly uncommitted) state — concurrency control
    is the caller's job (see {!Lock_manager}). *)

val get_col : t -> table:string -> key:string -> col:string -> (Value.t, string) result

val mem : t -> table:string -> key:string -> bool
(** Key existence without materialising the row (no defensive copy). *)

val commit : txn -> unit
val abort : txn -> unit
(** Rolls back this transaction's effects in reverse order. *)

val active_txns : t -> int

val compact : t -> unit
(** Checkpoints the write-ahead log: appends a snapshot (each table's
    creation, then one committed transaction inserting a copy of every
    live row) and drops every record before it ({!Wal.drop_before}).
    Recovery from the checkpointed log yields exactly the current state.
    A database checkpoints itself after each write that leaves no
    transaction open ({!apply_int}, {!apply_int_handle}, {!commit},
    {!abort}) once the records appended since its last snapshot reach 64
    times that snapshot's size, and at least 1,024. Raises
    [Invalid_argument] while any transaction is active. *)

(** {2 Recovery} *)

val recover : ?name:string -> Wal.t -> t
(** Rebuilds a database from a log: replays [Create_table] records and the
    operations of committed transactions, in log order. The rebuilt
    database's own WAL is a copy of the input log. *)
