open Avdb_store

let wal_record = Alcotest.testable Wal.pp_record Wal.equal_record

let sample_records =
  [
    Wal.Create_table
      {
        table = "stock";
        columns =
          [ { Schema.name = "amount"; ty = Value.Tint }; { Schema.name = "n|ame"; ty = Value.Tstr } ];
      };
    Wal.Begin 0;
    Wal.Insert { txid = 0; table = "stock"; key = "p|1"; row = [| Value.Int 5; Value.Str "a,b" |] };
    Wal.Update
      {
        txid = 0;
        table = "stock";
        key = "p|1";
        col = "amount";
        before = Value.Int 5;
        after = Value.Int 8;
      };
    Wal.Commit 0;
    Wal.Apply
      {
        txid = 2;
        table = "stock";
        key = "p|1";
        col = "amount";
        before = Value.Int 8;
        after = Value.Int 6;
      };
    Wal.Begin 1;
    Wal.Delete { txid = 1; table = "stock"; key = "p|1"; row = [| Value.Int 8; Value.Str "a,b" |] };
    Wal.Abort 1;
  ]

let test_append_order () =
  let w = Wal.create () in
  List.iteri
    (fun i r -> Alcotest.(check int) "lsn" i (Wal.append w r))
    sample_records;
  Alcotest.(check int) "length" (List.length sample_records) (Wal.length w);
  Alcotest.(check (list wal_record)) "records in order" sample_records (Wal.records w);
  Alcotest.check wal_record "nth" (List.nth sample_records 2) (Wal.nth w 2)

let test_encode_roundtrip () =
  List.iter
    (fun r ->
      match Wal.decode_record (Wal.encode_record r) with
      | Ok r' -> Alcotest.check wal_record "roundtrip" r r'
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_records

let test_serialise_roundtrip () =
  let w = Wal.create () in
  List.iter (fun r -> ignore (Wal.append w r)) sample_records;
  match Wal.of_string (Wal.to_string w) with
  | Ok w' -> Alcotest.(check (list wal_record)) "full log roundtrip" (Wal.records w) (Wal.records w')
  | Error e -> Alcotest.failf "of_string failed: %s" (Corruption.to_string e)

let test_empty_log_roundtrip () =
  let w = Wal.create () in
  match Wal.of_string (Wal.to_string w) with
  | Ok w' -> Alcotest.(check int) "empty" 0 (Wal.length w')
  | Error e -> Alcotest.failf "of_string failed: %s" (Corruption.to_string e)

let test_decode_garbage () =
  List.iter
    (fun line ->
      match Wal.decode_record line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded garbage %S" line)
    [ ""; "X|1"; "B|x"; "I|1|s:70"; "U|1|a|b|c"; "T|s:70|noeq" ]

let test_truncate () =
  let w = Wal.create () in
  List.iter (fun r -> ignore (Wal.append w r)) sample_records;
  Wal.truncate w 3;
  Alcotest.(check int) "shorter" 3 (Wal.length w);
  Alcotest.(check (list wal_record)) "prefix kept"
    (List.filteri (fun i _ -> i < 3) sample_records)
    (Wal.records w);
  (* Appending after truncation continues cleanly. *)
  ignore (Wal.append w (Wal.Commit 9));
  Alcotest.(check int) "append after truncate" 4 (Wal.length w)

let test_committed_txids () =
  let w = Wal.create () in
  List.iter (fun r -> ignore (Wal.append w r)) sample_records;
  let committed = Wal.committed_txids w in
  Alcotest.(check bool) "txn 0 committed" true (Hashtbl.mem committed 0);
  Alcotest.(check bool) "txn 1 not committed" false (Hashtbl.mem committed 1)

(* Compaction appends the snapshot to a log grown through several
   doublings and drops everything before it, keeping the LSNs: recovery
   from the compacted log, in memory and through its text, rebuilds
   exactly the compacted state, and no dropped record survives in the
   log. *)
let test_compact_then_recover () =
  let db = Database.create ~name:"wal" () in
  let schema = Schema.create [ { Schema.name = "amount"; ty = Value.Tint } ] in
  ignore (Database.create_table db ~name:"stock" schema);
  let key i = "k" ^ string_of_int (i mod 10) in
  let txn = Database.begin_txn db in
  for i = 0 to 9 do
    ignore (Database.insert txn ~table:"stock" ~key:(key i) [| Value.Int 0 |])
  done;
  Database.commit txn;
  for i = 0 to 999 do
    ignore (Database.apply_int db ~table:"stock" ~key:(key i) ~col:"amount" (1 + (i mod 7)))
  done;
  let wal = Database.wal db in
  Alcotest.(check int) "grown log" 1013 (Wal.length wal);
  Database.compact db;
  (* Create_table, Begin, ten Inserts, Commit, from LSN 1013 on *)
  Alcotest.(check int) "snapshot first" 1013 (Wal.first wal);
  Alcotest.(check int) "snapshot length" 1026 (Wal.length wal);
  Alcotest.(check int) "records = retained" 13 (List.length (Wal.records wal));
  let expected = Database.table db "stock" in
  let recovered = Database.recover wal in
  Alcotest.(check bool) "recovered from the compacted log" true
    (Table.equal_contents expected (Database.table recovered "stock"));
  match Wal.of_string (Wal.to_string wal) with
  | Error e -> Alcotest.failf "of_string failed: %s" (Corruption.to_string e)
  | Ok reread ->
      Alcotest.(check (list wal_record)) "text roundtrip" (Wal.records wal) (Wal.records reread);
      Alcotest.(check bool) "recovered through the text" true
        (Table.equal_contents expected (Database.table (Database.recover reread) "stock"))

(* Dropping a folded prefix keeps every record's LSN: appends go on from
   the old length, [nth] reads by LSN, and [nth], [truncate] and
   [drop_before] below the first retained LSN raise. *)
let test_drop_keeps_lsns () =
  let w = Wal.create () in
  List.iter (fun r -> ignore (Wal.append w r)) sample_records;
  let n = List.length sample_records in
  Wal.drop_before w 6;
  Alcotest.(check int) "first retained" 6 (Wal.first w);
  Alcotest.(check int) "length counts the dropped" n (Wal.length w);
  Alcotest.(check (list wal_record)) "records are the retained ones"
    (List.filteri (fun i _ -> i >= 6) sample_records)
    (Wal.records w);
  Alcotest.check wal_record "nth by LSN" (List.nth sample_records 7) (Wal.nth w 7);
  Alcotest.(check int) "the next LSN" n (Wal.append w (Wal.Commit 9));
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s below the first retained LSN" name
  in
  raises "nth" (fun () -> ignore (Wal.nth w 5));
  raises "truncate" (fun () -> Wal.truncate w 5);
  raises "drop_before" (fun () -> Wal.drop_before w 5);
  Wal.truncate w 6;
  Alcotest.(check int) "truncated to the first retained" 6 (Wal.length w);
  Alcotest.(check (list wal_record)) "nothing retained" [] (Wal.records w);
  Alcotest.(check string) "serialises the retained log" "" (Wal.to_string w)

let qcheck_tests =
  (* record/value generators are shared with the other storage suites *)
  let arb = Gen.wal_record in
  let open QCheck in
  [
    Test.make ~name:"record encode/decode roundtrip" ~count:1000 arb (fun r ->
        match Wal.decode_record (Wal.encode_record r) with
        | Ok r' -> Wal.equal_record r r'
        | Error _ -> false);
    Test.make ~name:"log serialise roundtrip" ~count:200
      (list_of_size Gen.(int_range 0 50) arb)
      (fun records ->
        let w = Wal.create () in
        List.iter (fun r -> ignore (Wal.append w r)) records;
        match Wal.of_string (Wal.to_string w) with
        | Ok w' -> List.for_all2 Wal.equal_record (Wal.records w) (Wal.records w')
        | Error _ -> false);
    (* A log built incrementally: interleave appends, truncations and
       serialisations (truncation point chosen by the int paired with each
       record; serialise when it is even) against a reference list of the
       records in append order. After every step the log's length,
       [records] and every [nth] match the list; every [to_string] equals
       a cold encode of the same records. *)
    Test.make ~name:"incremental to_string = cold encode" ~count:200
      (list_of_size Gen.(int_range 0 40) (pair arb (int_bound 100)))
      (fun steps ->
        let w = Wal.create () in
        let model = ref [] in
        let ok = ref true in
        let expect b = if not b then ok := false in
        let check_model () =
          expect (Wal.length w = List.length !model);
          expect (List.equal Wal.equal_record (Wal.records w) !model);
          List.iteri (fun i r -> expect (Wal.equal_record (Wal.nth w i) r)) !model
        in
        let check_serialised () =
          let cold = Wal.create () in
          List.iter (fun r -> ignore (Wal.append cold r)) !model;
          expect (Wal.to_string w = Wal.to_string cold)
        in
        List.iter
          (fun (r, n) ->
            if n < 15 && Wal.length w > 0 then begin
              let keep = n mod Wal.length w in
              Wal.truncate w keep;
              model := List.filteri (fun i _ -> i < keep) !model
            end
            else begin
              ignore (Wal.append w r);
              model := !model @ [ r ]
            end;
            check_model ();
            if n mod 2 = 0 then check_serialised ())
          steps;
        check_serialised ();
        !ok);
  ]

let suites =
  [
    ( "store.wal",
      [
        Alcotest.test_case "append order" `Quick test_append_order;
        Alcotest.test_case "encode roundtrip" `Quick test_encode_roundtrip;
        Alcotest.test_case "serialise roundtrip" `Quick test_serialise_roundtrip;
        Alcotest.test_case "empty log roundtrip" `Quick test_empty_log_roundtrip;
        Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
        Alcotest.test_case "truncate" `Quick test_truncate;
        Alcotest.test_case "committed txids" `Quick test_committed_txids;
        Alcotest.test_case "compact then recover" `Quick test_compact_then_recover;
        Alcotest.test_case "drop keeps LSNs" `Quick test_drop_keeps_lsns;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
