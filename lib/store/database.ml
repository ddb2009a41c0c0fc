type undo =
  | Undo_insert of { table : string; key : string }
  | Undo_update of { table : string; key : string; col : string; before : Value.t }
  | Undo_delete of { table : string; key : string; row : Value.t array }

type t = {
  number : int;  (* unique per database, so a handle can tell its own *)
  name : string;
  wal : Wal.t;
  tables : (string, Table.t) Hashtbl.t;
  mutable next_txid : int;
  mutable active : int;
  mutable checkpoint_at : int;  (* the WAL length that makes the next checkpoint due *)
}

type txn = { db : t; id : int; mutable undos : undo list; mutable finished : bool }

(* A handle names its database by number rather than holding it, so a
   handle kept past [recover] keeps neither the replaced database nor its
   log reachable. *)
type handle = { db_number : int; cell : Table.handle }

(* Atomic: sites on different domains create databases concurrently. *)
let numbers = Atomic.make 0

(* A checkpoint is due once the records appended since the last one reach
   [checkpoint_multiple] times that snapshot's size, and at least
   [checkpoint_floor]. A snapshot costs a copy of every row, so the
   multiple spreads it over 64 appends a row, and the log holds at most
   about 65 snapshots' worth of records. *)
let checkpoint_multiple = 64
let checkpoint_floor = 1024

let create ?(name = "db") () =
  {
    number = Atomic.fetch_and_add numbers 1;
    name;
    wal = Wal.create ();
    tables = Hashtbl.create 8;
    next_txid = 0;
    active = 0;
    checkpoint_at = checkpoint_floor;
  }

let name t = t.name
let wal t = t.wal

let create_table t ~name schema =
  if Hashtbl.mem t.tables name then
    invalid_arg ("Database.create_table: table exists: " ^ name);
  let table = Table.create ~name schema in
  Hashtbl.add t.tables name table;
  ignore (Wal.append t.wal (Wal.Create_table { table = name; columns = Schema.columns schema }));
  table

let table t name = Hashtbl.find t.tables name
let table_opt t name = Hashtbl.find_opt t.tables name

let tables t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tables []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let begin_txn t =
  let id = t.next_txid in
  t.next_txid <- t.next_txid + 1;
  t.active <- t.active + 1;
  ignore (Wal.append t.wal (Wal.Begin id));
  { db = t; id; undos = []; finished = false }

let check_live txn =
  if txn.finished then invalid_arg "Database: transaction already finished"

let find_table txn name =
  match table_opt txn.db name with
  | Some tbl -> Ok tbl
  | None -> Error (Printf.sprintf "no such table %S" name)

let ( let* ) = Result.bind

let insert txn ~table ~key row =
  check_live txn;
  let* tbl = find_table txn table in
  (* Log first (write-ahead), then apply. Validation happens in the table;
     on failure the log record is harmless because the txn would only ever
     replay if committed, and a failed op never commits that record's
     effect — but keep the log clean by validating before logging. *)
  match Schema.validate_row (Table.schema tbl) row with
  | Error e -> Error e
  | Ok () ->
      if Table.mem tbl ~key then Error (Printf.sprintf "duplicate key %S" key)
      else begin
        ignore (Wal.append txn.db.wal (Wal.Insert { txid = txn.id; table; key; row }));
        (match Table.insert tbl ~key row with
        | Ok () -> ()
        | Error e -> failwith ("Database.insert: validated insert failed: " ^ e));
        txn.undos <- Undo_insert { table; key } :: txn.undos;
        Ok ()
      end

let set_col txn ~table ~key ~col value =
  check_live txn;
  let* tbl = find_table txn table in
  let* before = Table.get_col tbl ~key ~col in
  (* Validated before logging, as [insert] is: recovery replays every
     record of a committed transaction. *)
  let* () = Schema.validate_value (Table.schema tbl) col value in
  ignore
    (Wal.append txn.db.wal (Wal.Update { txid = txn.id; table; key; col; before; after = value }));
  let* _old = Table.set_col tbl ~key ~col value in
  txn.undos <- Undo_update { table; key; col; before } :: txn.undos;
  Ok ()

let int_of = function Value.Int n -> n | v -> int_of_float (Value.as_float v)

let handle t ~table ~key ~col =
  { db_number = t.number; cell = Table.handle (Hashtbl.find t.tables table) ~key ~col }

let handle_live t h = h.db_number = t.number && Table.handle_live h.cell

let check_handle t h =
  if not (handle_live t h) then invalid_arg "Database: handle not live on this database"

let table_of h = Table.name (Table.handle_table h.cell)

(* The logging half of [add_int], after its in-place add. As in
   [apply_int], the record lands after the add; nothing can observe the
   gap, and a failed add changes nothing and logs nothing. *)
let log_update txn ~table ~key ~col ~before ~after =
  ignore (Wal.append txn.db.wal (Wal.Update { txid = txn.id; table; key; col; before; after }));
  txn.undos <- Undo_update { table; key; col; before } :: txn.undos;
  int_of after

(* One row lookup (Table.add_int_swap) instead of a get_col/set_col pair. *)
let add_int txn ~table ~key ~col delta =
  check_live txn;
  let* tbl = find_table txn table in
  let* before, after = Table.add_int_swap tbl ~key ~col delta in
  Ok (log_update txn ~table ~key ~col ~before ~after)

let add_int_handle txn h delta =
  check_live txn;
  check_handle txn.db h;
  let before = Table.handle_add h.cell delta in
  log_update txn ~table:(table_of h) ~key:(Table.handle_key h.cell)
    ~col:(Table.handle_col h.cell) ~before ~after:(Table.handle_get h.cell)

let delete txn ~table ~key =
  check_live txn;
  let* tbl = find_table txn table in
  match Table.get tbl ~key with
  | None -> Error (Printf.sprintf "no such key %S" key)
  | Some row ->
      ignore (Wal.append txn.db.wal (Wal.Delete { txid = txn.id; table; key; row }));
      ignore (Table.delete tbl ~key);
      txn.undos <- Undo_delete { table; key; row } :: txn.undos;
      Ok ()

(* Folds the log into a snapshot written in place: each table's creation,
   then one committed transaction inserting a copy of every live row (a
   handle write changes the stored row in place, and must not change the
   snapshot). Then the records before the snapshot go. *)
let compact t =
  if t.active > 0 then invalid_arg "Database.compact: transactions active";
  let start = Wal.length t.wal in
  let log r = ignore (Wal.append t.wal r) in
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  let tables = tables t in
  List.iter
    (fun (table, tbl) ->
      log (Wal.Create_table { table; columns = Schema.columns (Table.schema tbl) }))
    tables;
  log (Wal.Begin txid);
  List.iter
    (fun (table, tbl) ->
      Table.iter tbl (fun key row -> log (Wal.Insert { txid; table; key; row = Array.copy row })))
    tables;
  log (Wal.Commit txid);
  Wal.drop_before t.wal start;
  let size = Wal.length t.wal - start in
  t.checkpoint_at <- Wal.length t.wal + Int.max checkpoint_floor (checkpoint_multiple * size)

(* Called after each write that can leave no transaction open. *)
let checkpoint_if_due t = if t.active = 0 && Wal.length t.wal >= t.checkpoint_at then compact t

(* Autocommit fast path for the single hottest mutation: one row lookup
   (Table.add_int_swap) instead of the get_col/set_col pair, no undo list,
   no txn record, and a single [Wal.Apply] record instead of the
   Begin/Update/Commit triple — committed by definition, and atomic under
   torn-tail recovery because one record is one log line. The record lands
   after the in-place add rather than before; within this function nothing
   can observe the gap (simulated crashes truncate the log between
   operations, never inside one). *)
let log_apply t ~table ~key ~col ~before ~after =
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  ignore (Wal.append t.wal (Wal.Apply { txid; table; key; col; before; after }));
  checkpoint_if_due t;
  int_of after

let apply_int t ~table ~key ~col delta =
  match Hashtbl.find t.tables table with
  | exception Not_found -> Error (Printf.sprintf "no such table %S" table)
  | tbl -> (
      match Table.add_int_swap tbl ~key ~col delta with
      | Error e -> Error e
      | Ok (before, after) -> Ok (log_apply t ~table ~key ~col ~before ~after))

let apply_int_handle t h delta =
  check_handle t h;
  let before = Table.handle_add h.cell delta in
  log_apply t ~table:(table_of h) ~key:(Table.handle_key h.cell) ~col:(Table.handle_col h.cell)
    ~before ~after:(Table.handle_get h.cell)

let get_int_handle t h =
  check_handle t h;
  int_of (Table.handle_get h.cell)

let get t ~table ~key =
  match table_opt t table with None -> None | Some tbl -> Table.get tbl ~key

let mem t ~table ~key =
  match Hashtbl.find t.tables table with
  | exception Not_found -> false
  | tbl -> Table.mem tbl ~key

let get_col t ~table ~key ~col =
  match table_opt t table with
  | None -> Error (Printf.sprintf "no such table %S" table)
  | Some tbl -> Table.get_col tbl ~key ~col

let finish txn =
  txn.finished <- true;
  txn.db.active <- txn.db.active - 1;
  checkpoint_if_due txn.db

let commit txn =
  check_live txn;
  ignore (Wal.append txn.db.wal (Wal.Commit txn.id));
  finish txn

let abort txn =
  check_live txn;
  (* undos is newest-first, which is exactly reverse application order. *)
  List.iter
    (fun undo ->
      let tbl = table txn.db (match undo with
        | Undo_insert { table; _ } | Undo_update { table; _ } | Undo_delete { table; _ } -> table)
      in
      match undo with
      | Undo_insert { key; _ } -> ignore (Table.delete tbl ~key)
      | Undo_update { key; col; before; _ } -> (
          match Table.set_col tbl ~key ~col before with
          | Ok _ -> ()
          | Error e -> failwith ("Database.abort: undo failed: " ^ e))
      | Undo_delete { key; row; _ } -> (
          match Table.insert tbl ~key row with
          | Ok () -> ()
          | Error e -> failwith ("Database.abort: undo failed: " ^ e)))
    txn.undos;
  ignore (Wal.append txn.db.wal (Wal.Abort txn.id));
  finish txn

let active_txns t = t.active

let recover ?name wal =
  let db = create ?name () in
  let committed = Wal.committed_txids wal in
  let apply = function
    | Wal.Create_table { table = tname; columns } ->
        (* Not via [create_table]: replay must not re-log records, the whole
           input log is copied into the new WAL below. *)
        Hashtbl.add db.tables tname (Table.create ~name:tname (Schema.create columns))
    | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ -> ()
    | Wal.Insert { txid; table = tname; key; row } ->
        if Hashtbl.mem committed txid then begin
          match Table.insert (table db tname) ~key row with
          | Ok () -> ()
          | Error e -> failwith ("Database.recover: replay insert: " ^ e)
        end
    | Wal.Update { txid; table = tname; key; col; after; _ } ->
        if Hashtbl.mem committed txid then begin
          match Table.set_col (table db tname) ~key ~col after with
          | Ok _ -> ()
          | Error e -> failwith ("Database.recover: replay update: " ^ e)
        end
    | Wal.Delete { txid; table = tname; key; _ } ->
        if Hashtbl.mem committed txid then ignore (Table.delete (table db tname) ~key)
    | Wal.Apply { table = tname; key; col; after; _ } -> (
        (* Committed by definition — no txid check. *)
        match Table.set_col (table db tname) ~key ~col after with
        | Ok _ -> ()
        | Error e -> failwith ("Database.recover: replay apply: " ^ e))
  in
  List.iter apply (Wal.records wal);
  (* The recovered instance writes to a fresh WAL seeded with the replayed
     history, so a second crash recovers to at least this state. *)
  List.iter
    (fun r ->
      (match r with
      | Wal.Begin txid | Wal.Apply { txid; _ } ->
          db.next_txid <- Stdlib.max db.next_txid (txid + 1)
      | _ -> ());
      ignore (Wal.append db.wal r))
    (Wal.records wal);
  db
