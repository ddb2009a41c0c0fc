(** Write-ahead log.

    Every transactional mutation appends a record {e before} the in-memory
    table is touched; [Commit]/[Abort] markers close a transaction.
    Recovery ({!Database.recover}) replays records of committed
    transactions only. A checkpoint ({!Database.compact}) appends a
    snapshot and drops the records before it, so recovery replays the
    snapshot plus the tail. Records encode to single text lines, so a log
    can be serialised, truncated to simulate a crash, and replayed. *)

type record =
  | Create_table of { table : string; columns : Schema.column list }
  | Begin of int  (** transaction id *)
  | Insert of { txid : int; table : string; key : string; row : Value.t array }
  | Update of { txid : int; table : string; key : string; col : string; before : Value.t; after : Value.t }
  | Delete of { txid : int; table : string; key : string; row : Value.t array }
  | Commit of int
  | Abort of int
  | Apply of { txid : int; table : string; key : string; col : string; before : Value.t; after : Value.t }
      (** A complete single-operation committed transaction in one record —
          the autocommit write path ({!Database.apply_int}) writes this
          instead of a Begin/Update/Commit triple. Atomic by construction:
          a torn tail either keeps the whole update or none of it. *)

type t
(** A log whose folded prefix can be dropped ({!drop_before}) while every
    record keeps its log sequence number (LSN): the LSN of a record is the
    number of records appended before it, dropped ones included. *)

val create : unit -> t

val append : t -> record -> int
(** Returns the record's LSN. Amortised O(1): the retained log is an
    array in append order that doubles when full. *)

val length : t -> int
(** Records ever appended, dropped ones included: the next record's LSN. *)

val first : t -> int
(** The LSN of the first retained record ([length t] when none is). *)

val records : t -> record list
(** The retained records in append order, as a fresh list: O(retained). *)

val nth : t -> int -> record
(** The record at an LSN. O(1). Raises [Invalid_argument] outside
    [[first t, length t)]. *)

val truncate : t -> int -> unit
(** [truncate t lsn] keeps the records below [lsn], which must lie in
    [[first t, length t]] — simulates losing the log tail in a crash.
    O(records dropped): their slots are cleared so the dropped records
    can be collected; the array keeps its capacity. *)

val drop_before : t -> int -> unit
(** [drop_before t lsn] discards the retained records below [lsn], which
    must lie in [[first t, length t]]: what a checkpoint folded
    ({!Database.compact}). LSNs do not move. O(records retained). *)

val committed_txids : t -> (int, unit) Hashtbl.t

val encode_record : record -> string

val encode_record_into : Buffer.t -> record -> unit
(** Appends exactly what {!encode_record} returns. *)

val decode_record : string -> (record, string) result

val to_string : t -> string
(** One retained record per line, encoded afresh on each call. *)

val of_string : string -> (t, Corruption.t) result
(** Parses a serialised log into one whose first LSN is 0. An undecodable {e final} line is treated as a
    tail torn by a crash mid-append and dropped — the decoded prefix is
    recovered. An undecodable line anywhere before the end is corruption
    and fails the whole parse with the offending byte offset. *)

val equal_record : record -> record -> bool
val pp_record : Format.formatter -> record -> unit
