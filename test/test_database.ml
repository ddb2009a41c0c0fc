open Avdb_store

let stock_schema () =
  Schema.create
    [ { Schema.name = "amount"; ty = Value.Tint }; { Schema.name = "regular"; ty = Value.Tbool } ]

let row amount regular = [| Value.Int amount; Value.Bool regular |]

let make () =
  let db = Database.create ~name:"test" () in
  ignore (Database.create_table db ~name:"stock" (stock_schema ()));
  db

let amount db key =
  match Database.get_col db ~table:"stock" ~key ~col:"amount" with
  | Ok (Value.Int n) -> n
  | Ok _ -> Alcotest.fail "not an int"
  | Error e -> Alcotest.fail e

let test_create_table () =
  let db = make () in
  Alcotest.(check (list string)) "tables" [ "stock" ] (List.map fst (Database.tables db));
  (match Database.create_table db ~name:"stock" (stock_schema ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate table accepted");
  Alcotest.(check bool) "table_opt hit" true (Option.is_some (Database.table_opt db "stock"));
  Alcotest.(check bool) "table_opt miss" true (Option.is_none (Database.table_opt db "zzz"))

let test_commit_applies () =
  let db = make () in
  let txn = Database.begin_txn db in
  Alcotest.(check bool) "insert" true
    (Result.is_ok (Database.insert txn ~table:"stock" ~key:"p" (row 100 true)));
  (match Database.add_int txn ~table:"stock" ~key:"p" ~col:"amount" (-30) with
  | Ok 70 -> ()
  | _ -> Alcotest.fail "expected 70");
  Database.commit txn;
  Alcotest.(check int) "committed value" 70 (amount db "p");
  Alcotest.(check int) "no active txns" 0 (Database.active_txns db)

let test_abort_rolls_back () =
  let db = make () in
  let setup = Database.begin_txn db in
  ignore (Database.insert setup ~table:"stock" ~key:"p" (row 100 true));
  ignore (Database.insert setup ~table:"stock" ~key:"q" (row 50 false));
  Database.commit setup;
  let txn = Database.begin_txn db in
  ignore (Database.add_int txn ~table:"stock" ~key:"p" ~col:"amount" (-10));
  ignore (Database.set_col txn ~table:"stock" ~key:"p" ~col:"regular" (Value.Bool false));
  ignore (Database.delete txn ~table:"stock" ~key:"q");
  ignore (Database.insert txn ~table:"stock" ~key:"r" (row 7 true));
  Database.abort txn;
  Alcotest.(check int) "amount restored" 100 (amount db "p");
  (match Database.get_col db ~table:"stock" ~key:"p" ~col:"regular" with
  | Ok (Value.Bool true) -> ()
  | _ -> Alcotest.fail "regular flag not restored");
  Alcotest.(check int) "deleted row restored" 50 (amount db "q");
  Alcotest.(check bool) "inserted row removed" true
    (Option.is_none (Database.get db ~table:"stock" ~key:"r"))

let test_abort_reverse_order () =
  (* Two updates to the same column in one txn: abort must restore the
     original, not the intermediate. *)
  let db = make () in
  let setup = Database.begin_txn db in
  ignore (Database.insert setup ~table:"stock" ~key:"p" (row 1 true));
  Database.commit setup;
  let txn = Database.begin_txn db in
  ignore (Database.set_col txn ~table:"stock" ~key:"p" ~col:"amount" (Value.Int 2));
  ignore (Database.set_col txn ~table:"stock" ~key:"p" ~col:"amount" (Value.Int 3));
  Database.abort txn;
  Alcotest.(check int) "original restored" 1 (amount db "p")

let test_finished_txn_rejected () =
  let db = make () in
  let txn = Database.begin_txn db in
  Database.commit txn;
  (match Database.insert txn ~table:"stock" ~key:"p" (row 1 true) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "op on finished txn accepted");
  match Database.commit txn with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double commit accepted"

let test_errors_do_not_poison_txn () =
  let db = make () in
  let txn = Database.begin_txn db in
  Alcotest.(check bool) "missing table" true
    (Result.is_error (Database.insert txn ~table:"zzz" ~key:"p" (row 1 true)));
  Alcotest.(check bool) "missing key" true
    (Result.is_error (Database.add_int txn ~table:"stock" ~key:"nope" ~col:"amount" 1));
  ignore (Database.insert txn ~table:"stock" ~key:"p" (row 5 true));
  Database.commit txn;
  Alcotest.(check int) "good op survived" 5 (amount db "p")

let test_recover_committed_only () =
  let db = make () in
  let t1 = Database.begin_txn db in
  ignore (Database.insert t1 ~table:"stock" ~key:"committed" (row 10 true));
  Database.commit t1;
  let t2 = Database.begin_txn db in
  ignore (Database.insert t2 ~table:"stock" ~key:"aborted" (row 20 true));
  Database.abort t2;
  let t3 = Database.begin_txn db in
  ignore (Database.insert t3 ~table:"stock" ~key:"inflight" (row 30 true));
  (* t3 never finishes: crash now. *)
  let recovered = Database.recover (Database.wal db) in
  Alcotest.(check bool) "committed row present" true
    (Option.is_some (Database.get recovered ~table:"stock" ~key:"committed"));
  Alcotest.(check bool) "aborted row absent" true
    (Option.is_none (Database.get recovered ~table:"stock" ~key:"aborted"));
  Alcotest.(check bool) "in-flight row absent" true
    (Option.is_none (Database.get recovered ~table:"stock" ~key:"inflight"))

let test_recover_equals_state () =
  let db = make () in
  let txn = Database.begin_txn db in
  ignore (Database.insert txn ~table:"stock" ~key:"p" (row 100 true));
  ignore (Database.add_int txn ~table:"stock" ~key:"p" ~col:"amount" (-25));
  ignore (Database.insert txn ~table:"stock" ~key:"q" (row 1 false));
  ignore (Database.delete txn ~table:"stock" ~key:"q");
  Database.commit txn;
  let recovered = Database.recover (Database.wal db) in
  Alcotest.(check bool) "tables equal" true
    (Table.equal_contents (Database.table db "stock") (Database.table recovered "stock"))

let test_recover_through_serialisation () =
  (* Crash simulation: serialise the log, reload it, recover. *)
  let db = make () in
  let txn = Database.begin_txn db in
  ignore (Database.insert txn ~table:"stock" ~key:"p" (row 42 true));
  Database.commit txn;
  match Wal.of_string (Wal.to_string (Database.wal db)) with
  | Error e -> Alcotest.fail (Corruption.to_string e)
  | Ok wal ->
      let recovered = Database.recover wal in
      Alcotest.(check int) "value survives serialisation" 42 (amount recovered "p")

let test_recover_truncated_tail () =
  (* Losing the tail of the log after the last commit must not lose
     committed data. *)
  let db = make () in
  let t1 = Database.begin_txn db in
  ignore (Database.insert t1 ~table:"stock" ~key:"p" (row 10 true));
  Database.commit t1;
  let mark = Wal.length (Database.wal db) in
  let t2 = Database.begin_txn db in
  ignore (Database.add_int t2 ~table:"stock" ~key:"p" ~col:"amount" 5);
  Database.commit t2;
  let wal = Database.wal db in
  Wal.truncate wal mark;
  let recovered = Database.recover wal in
  Alcotest.(check int) "pre-truncation state" 10 (amount recovered "p")

let test_recover_double_crash () =
  let db = make () in
  let t1 = Database.begin_txn db in
  ignore (Database.insert t1 ~table:"stock" ~key:"p" (row 10 true));
  Database.commit t1;
  let r1 = Database.recover (Database.wal db) in
  (* Work on the recovered db, then crash again. *)
  let t2 = Database.begin_txn r1 in
  ignore (Database.add_int t2 ~table:"stock" ~key:"p" ~col:"amount" 7);
  Database.commit t2;
  let r2 = Database.recover (Database.wal r1) in
  Alcotest.(check int) "both generations survive" 17 (amount r2 "p")

let test_compact () =
  let db = make () in
  (* Build up history: inserts, updates, an abort, a delete. *)
  for i = 0 to 9 do
    let txn = Database.begin_txn db in
    ignore (Database.insert txn ~table:"stock" ~key:("k" ^ string_of_int i) (row i true));
    ignore (Database.add_int txn ~table:"stock" ~key:("k" ^ string_of_int i) ~col:"amount" 5);
    if i mod 3 = 0 then Database.abort txn else Database.commit txn
  done;
  let t_del = Database.begin_txn db in
  ignore (Database.delete t_del ~table:"stock" ~key:"k1");
  Database.commit t_del;
  let before = Table.copy (Database.table db "stock") in
  let long_log = List.length (Wal.records (Database.wal db)) in
  Database.compact db;
  Alcotest.(check bool) "log shrank" true
    (List.length (Wal.records (Database.wal db)) < long_log);
  Alcotest.(check bool) "state untouched" true
    (Table.equal_contents before (Database.table db "stock"));
  let recovered = Database.recover (Database.wal db) in
  Alcotest.(check bool) "recovery from snapshot" true
    (Table.equal_contents before (Database.table recovered "stock"));
  (* Work continues after compaction and still recovers. *)
  let txn = Database.begin_txn db in
  ignore (Database.add_int txn ~table:"stock" ~key:"k2" ~col:"amount" 100);
  Database.commit txn;
  let recovered2 = Database.recover (Database.wal db) in
  Alcotest.(check int) "post-compact work recovers" 107 (amount recovered2 "k2")

let test_compact_rejects_active_txn () =
  let db = make () in
  let txn = Database.begin_txn db in
  (match Database.compact db with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "compact with active txn accepted");
  Database.abort txn

let test_wal_mid_record_truncation () =
  (* Truncation mid-record (not just mid-line): the serialised bytes are
     cut inside an encoded record, leaving a shorter, undecodable final
     line. Wal.of_string must recover everything before it. *)
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore
    (Wal.append wal
       (Wal.Insert { txid = 1; table = "stock"; key = "p"; row = [| Value.Int 42 |] }));
  ignore (Wal.append wal (Wal.Commit 1));
  let s = Wal.to_string wal in
  (* Cut inside the final record's bytes. *)
  let torn = String.sub s 0 (String.length s - 2) in
  (match Wal.of_string torn with
  | Error e -> Alcotest.fail ("mid-record truncation should recover: " ^ Corruption.to_string e)
  | Ok recovered ->
      Alcotest.(check int) "final record dropped" 2 (Wal.length recovered);
      Alcotest.(check bool) "prefix intact" true
        (Wal.equal_record (Wal.nth recovered 0) (Wal.Begin 1)));
  (* The same torn bytes followed by a valid record are mid-log
     corruption, not a torn tail, and must fail. *)
  let lines = String.split_on_char '\n' torn in
  let torn_line = List.nth lines (List.length lines - 1) in
  let cut_mid = String.concat "\n" [ List.hd lines; torn_line; "C|1" ] in
  match Wal.of_string cut_mid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-log corruption accepted"

let fresh = make

(* --- column handles --- *)

let with_keys keys =
  let db = make () in
  let txn = Database.begin_txn db in
  List.iter (fun key -> ignore (Database.insert txn ~table:"stock" ~key (row 100 true))) keys;
  Database.commit txn;
  db

let test_handle_not_live_after_recover () =
  let db = with_keys [ "p" ] in
  let h = Database.handle db ~table:"stock" ~key:"p" ~col:"amount" in
  Alcotest.(check int) "apply through the handle" 90 (Database.apply_int_handle db h (-10));
  let recovered = Database.recover (Database.wal db) in
  Alcotest.(check bool) "live on its own database" true (Database.handle_live db h);
  Alcotest.(check bool) "not live on the recovered one" false (Database.handle_live recovered h);
  (match Database.apply_int_handle recovered h 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a write through another database's handle");
  Alcotest.(check int) "the recovered row untouched" 90 (amount recovered "p");
  let h' = Database.handle recovered ~table:"stock" ~key:"p" ~col:"amount" in
  Alcotest.(check int) "a fresh handle writes the recovered row" 91
    (Database.apply_int_handle recovered h' 1);
  match Database.handle db ~table:"stock" ~key:"absent" ~col:"amount" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "a handle on a missing key"

(* A write the table rejects logs nothing, so every record of a committed
   transaction replays. *)
let test_rejected_set_col_logs_nothing () =
  let db = with_keys [ "p" ] in
  let wal = Database.wal db in
  let txn = Database.begin_txn db in
  let logged = Wal.length wal in
  Alcotest.(check bool) "a wrong-typed set_col fails" true
    (Result.is_error (Database.set_col txn ~table:"stock" ~key:"p" ~col:"amount" (Value.Str "x")));
  Alcotest.(check int) "and logs nothing" logged (Wal.length wal);
  ignore (Database.set_col txn ~table:"stock" ~key:"p" ~col:"amount" (Value.Int 78));
  Database.commit txn;
  Alcotest.(check bool) "recovery equals the live table" true
    (Table.equal_contents (Database.table db "stock") (Database.table (Database.recover wal) "stock"))

(* One random operation on key [k]: an autocommit apply, or a transaction
   adding [delta] that commits or aborts; by name or through a handle. *)
type op = { k : int; delta : int; kind : [ `Apply | `Commit | `Abort ]; by_handle : bool }

let op_gen =
  QCheck.Gen.(
    map
      (fun (k, delta, kind, by_handle) ->
        { k; delta; kind = [| `Apply; `Commit; `Abort |].(kind); by_handle })
      (quad (int_range 0 2) (int_range (-50) 50) (int_range 0 2) bool))

let print_op o =
  Printf.sprintf "k%d %+d %s %s" o.k o.delta
    (match o.kind with `Apply -> "apply" | `Commit -> "commit" | `Abort -> "abort")
    (if o.by_handle then "handle" else "name")

let run_ops db ops ~handles_allowed =
  let keys = [| "k0"; "k1"; "k2" |] in
  let handles =
    Array.map (fun key -> Database.handle db ~table:"stock" ~key ~col:"amount") keys
  in
  List.iter
    (fun o ->
      let key = keys.(o.k) and h = handles.(o.k) in
      let by_handle = handles_allowed && o.by_handle in
      match o.kind with
      | `Apply ->
          if by_handle then ignore (Database.apply_int_handle db h o.delta)
          else ignore (Database.apply_int db ~table:"stock" ~key ~col:"amount" o.delta)
      | (`Commit | `Abort) as ending ->
          let txn = Database.begin_txn db in
          (if by_handle then ignore (Database.add_int_handle txn h o.delta)
           else ignore (Database.add_int txn ~table:"stock" ~key ~col:"amount" o.delta));
          if ending = `Commit then Database.commit txn else Database.abort txn)
    ops

(* A snapshot holds copies of the rows: a handle write after the
   checkpoint changes the stored row in place, and must not change what
   the snapshot recovers. *)
let test_compact_copies_rows () =
  let db = with_keys [ "p" ] in
  Database.compact db;
  let wal = Database.wal db in
  let snapshot_end = Wal.length wal in
  let h = Database.handle db ~table:"stock" ~key:"p" ~col:"amount" in
  ignore (Database.apply_int_handle db h 5);
  Wal.truncate wal snapshot_end;
  Alcotest.(check int) "the snapshot's row" 100 (amount (Database.recover wal) "p")

(* Writes inside an open transaction never checkpoint, however long the
   log grows; the commit that closes it does. *)
let test_checkpoint_waits_for_open_txn () =
  let db = with_keys [ "p"; "q" ] in
  let wal = Database.wal db in
  let txn = Database.begin_txn db in
  ignore (Database.add_int txn ~table:"stock" ~key:"q" ~col:"amount" 7);
  for _ = 1 to 2000 do
    ignore (Database.apply_int db ~table:"stock" ~key:"p" ~col:"amount" 1)
  done;
  Alcotest.(check int) "nothing folded while open" 0 (Wal.first wal);
  let open_end = Wal.length wal in
  Database.commit txn;
  Alcotest.(check int) "folded up to the commit" (open_end + 1) (Wal.first wal);
  (* Create_table, Begin, two Inserts, Commit *)
  Alcotest.(check int) "only the snapshot is retained" 5 (List.length (Wal.records wal));
  let recovered = Database.recover wal in
  Alcotest.(check int) "p" 2100 (amount recovered "p");
  Alcotest.(check int) "q" 107 (amount recovered "q")

(* A long autocommit run checkpoints on its own: every write's LSN is
   above the last, the retained log stays bounded, and recovery from it,
   in memory and through its text, equals the live state. *)
let test_checkpointed_recovery () =
  let keys = List.init 8 (fun i -> "k" ^ string_of_int i) in
  let db = with_keys keys in
  let wal = Database.wal db in
  let handles =
    Array.of_list (List.map (fun key -> Database.handle db ~table:"stock" ~key ~col:"amount") keys)
  in
  let last = ref (Wal.length wal - 1) and longest = ref 0 in
  for i = 0 to 9_999 do
    (if i mod 97 = 0 then begin
       let txn = Database.begin_txn db in
       ignore (Database.add_int_handle txn handles.(i mod 8) 3);
       if i mod 2 = 0 then Database.commit txn else Database.abort txn
     end
     else ignore (Database.apply_int_handle db handles.(i mod 8) (1 + (i mod 5))));
    let lsn = Wal.length wal - 1 in
    if lsn <= !last then Alcotest.failf "LSN %d after %d" lsn !last;
    last := lsn;
    longest := Int.max !longest (List.length (Wal.records wal))
  done;
  Alcotest.(check bool) "checkpointed" true (Wal.first wal > 0);
  Alcotest.(check bool) "the retained log stays bounded" true (!longest <= 1024 + 20);
  let live = Database.table db "stock" in
  Alcotest.(check bool) "recovered in memory" true
    (Table.equal_contents live (Database.table (Database.recover wal) "stock"));
  match Wal.of_string (Wal.to_string wal) with
  | Error e -> Alcotest.failf "of_string failed: %s" (Corruption.to_string e)
  | Ok reread ->
      Alcotest.(check bool) "recovered through the text" true
        (Table.equal_contents live (Database.table (Database.recover reread) "stock"))

let qcheck_tests =
  (* Random committed/aborted transaction mix: recovery must equal the live
     state exactly. The script shape (key, delta, commit?) is shared. *)
  let script = Gen.txn_script () in
  let open QCheck in
  [
    Test.make ~name:"recover = live state under random txns" ~count:200 script
      (fun txns ->
        let db = fresh () in
        List.iter
          (fun (k, delta, do_commit) ->
            let key = "k" ^ string_of_int k in
            let txn = Database.begin_txn db in
            (if Option.is_none (Database.get db ~table:"stock" ~key) then
               ignore (Database.insert txn ~table:"stock" ~key (row 100 true)));
            ignore (Database.add_int txn ~table:"stock" ~key ~col:"amount" delta);
            if do_commit then Database.commit txn else Database.abort txn)
          txns;
        let recovered = Database.recover (Database.wal db) in
        Table.equal_contents (Database.table db "stock") (Database.table recovered "stock"));
    (* Handles write what names write: the rows a reference map predicts,
       the WAL an all-by-name run writes, record for record, and a log
       that recovers those rows. *)
    Test.make ~name:"handles write what names write" ~count:200
      (list_of_size Gen.(int_range 1 40) (make ~print:print_op op_gen))
      (fun ops ->
        let keys = [ "k0"; "k1"; "k2" ] in
        let db = with_keys keys and by_name = with_keys keys in
        run_ops db ops ~handles_allowed:true;
        run_ops by_name ops ~handles_allowed:false;
        let expected = Array.make 3 100 in
        List.iter
          (fun o -> if o.kind <> `Abort then expected.(o.k) <- expected.(o.k) + o.delta)
          ops;
        let rows_are db =
          List.for_all (fun i -> amount db ("k" ^ string_of_int i) = expected.(i)) [ 0; 1; 2 ]
        in
        let wal = Wal.records (Database.wal db) in
        let wal_by_name = Wal.records (Database.wal by_name) in
        rows_are db
        && List.length wal = List.length wal_by_name
        && List.for_all2 Wal.equal_record wal wal_by_name
        && rows_are (Database.recover (Database.wal db)));
  ]

let suites =
  [
    ( "store.database",
      [
        Alcotest.test_case "create table" `Quick test_create_table;
        Alcotest.test_case "commit applies" `Quick test_commit_applies;
        Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
        Alcotest.test_case "abort reverse order" `Quick test_abort_reverse_order;
        Alcotest.test_case "finished txn rejected" `Quick test_finished_txn_rejected;
        Alcotest.test_case "errors do not poison txn" `Quick test_errors_do_not_poison_txn;
        Alcotest.test_case "recover committed only" `Quick test_recover_committed_only;
        Alcotest.test_case "recover equals state" `Quick test_recover_equals_state;
        Alcotest.test_case "recover through serialisation" `Quick test_recover_through_serialisation;
        Alcotest.test_case "recover truncated tail" `Quick test_recover_truncated_tail;
        Alcotest.test_case "recover double crash" `Quick test_recover_double_crash;
        Alcotest.test_case "compact" `Quick test_compact;
        Alcotest.test_case "compact rejects active txn" `Quick test_compact_rejects_active_txn;
        Alcotest.test_case "wal mid-record truncation" `Quick test_wal_mid_record_truncation;
        Alcotest.test_case "handle not live after recover" `Quick
          test_handle_not_live_after_recover;
        Alcotest.test_case "compact copies rows" `Quick test_compact_copies_rows;
        Alcotest.test_case "checkpoint waits for an open txn" `Quick
          test_checkpoint_waits_for_open_txn;
        Alcotest.test_case "checkpointed recovery" `Quick test_checkpointed_recovery;
        Alcotest.test_case "rejected set_col logs nothing" `Quick
          test_rejected_set_col_logs_nothing;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
