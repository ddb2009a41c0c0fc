open Avdb_store

let stock_schema () =
  Schema.create
    [
      { Schema.name = "product"; ty = Value.Tstr };
      { Schema.name = "amount"; ty = Value.Tint };
      { Schema.name = "regular"; ty = Value.Tbool };
    ]

let row name amount regular = [| Value.Str name; Value.Int amount; Value.Bool regular |]

let make () = Table.create ~name:"stock" (stock_schema ())

(* --- Schema --- *)

let test_schema_basics () =
  let s = stock_schema () in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check int) "index" 1 (Schema.index s "amount");
  Alcotest.(check (option int)) "index_opt miss" None (Schema.index_opt s "nope");
  Alcotest.(check string) "column_ty" "int" (Value.ty_name (Schema.column_ty s "amount"))

let test_schema_rejects_duplicates () =
  match
    Schema.create [ { Schema.name = "a"; ty = Value.Tint }; { Schema.name = "a"; ty = Value.Tstr } ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate columns accepted"

let test_schema_rejects_empty () =
  match Schema.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty schema accepted"

let test_validate_row () =
  let s = stock_schema () in
  Alcotest.(check bool) "valid" true (Result.is_ok (Schema.validate_row s (row "p" 1 true)));
  Alcotest.(check bool) "wrong arity" true
    (Result.is_error (Schema.validate_row s [| Value.Int 1 |]));
  Alcotest.(check bool) "wrong type" true
    (Result.is_error (Schema.validate_row s [| Value.Int 1; Value.Int 2; Value.Bool true |]))

(* --- Table --- *)

let test_insert_get () =
  let t = make () in
  Alcotest.(check bool) "insert ok" true (Result.is_ok (Table.insert t ~key:"p1" (row "p1" 100 true)));
  Alcotest.(check bool) "mem" true (Table.mem t ~key:"p1");
  (match Table.get t ~key:"p1" with
  | Some r -> Alcotest.(check int) "amount" 100 (Value.as_int r.(1))
  | None -> Alcotest.fail "row missing");
  Alcotest.(check bool) "duplicate rejected" true
    (Result.is_error (Table.insert t ~key:"p1" (row "p1" 1 true)));
  Alcotest.(check bool) "bad row rejected" true
    (Result.is_error (Table.insert t ~key:"p2" [| Value.Int 0 |]));
  Alcotest.(check int) "size" 1 (Table.size t)

let test_get_is_copy () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  (match Table.get t ~key:"p" with
  | Some r -> r.(1) <- Value.Int 9999
  | None -> Alcotest.fail "missing");
  match Table.get_col t ~key:"p" ~col:"amount" with
  | Ok (Value.Int 10) -> ()
  | _ -> Alcotest.fail "table row was aliased by get"

let test_insert_copies_input () =
  let t = make () in
  let r = row "p" 10 true in
  ignore (Table.insert t ~key:"p" r);
  r.(1) <- Value.Int 0;
  match Table.get_col t ~key:"p" ~col:"amount" with
  | Ok (Value.Int 10) -> ()
  | _ -> Alcotest.fail "table aliased caller's array"

let test_set_col () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  (match Table.set_col t ~key:"p" ~col:"amount" (Value.Int 20) with
  | Ok (Value.Int 10) -> ()
  | _ -> Alcotest.fail "expected old value 10");
  Alcotest.(check bool) "type mismatch" true
    (Result.is_error (Table.set_col t ~key:"p" ~col:"amount" (Value.Str "x")));
  Alcotest.(check bool) "missing key" true
    (Result.is_error (Table.set_col t ~key:"zzz" ~col:"amount" (Value.Int 1)));
  Alcotest.(check bool) "missing col" true
    (Result.is_error (Table.set_col t ~key:"p" ~col:"zzz" (Value.Int 1)))

let test_add_int () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  (match Table.add_int t ~key:"p" ~col:"amount" 5 with
  | Ok 15 -> ()
  | Ok n -> Alcotest.failf "expected 15, got %d" n
  | Error e -> Alcotest.fail e);
  (match Table.add_int t ~key:"p" ~col:"amount" (-20) with
  | Ok (-5) -> ()
  | _ -> Alcotest.fail "negative result allowed at storage level");
  Alcotest.(check bool) "non-numeric col" true
    (Result.is_error (Table.add_int t ~key:"p" ~col:"product" 1))

let test_delete () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  (match Table.delete t ~key:"p" with
  | Some r -> Alcotest.(check int) "deleted row" 10 (Value.as_int r.(1))
  | None -> Alcotest.fail "expected row");
  Alcotest.(check bool) "gone" false (Table.mem t ~key:"p");
  Alcotest.(check (option unit)) "double delete" None
    (Option.map (fun _ -> ()) (Table.delete t ~key:"p"))

let test_iteration () =
  let t = make () in
  List.iter
    (fun (k, amount) -> ignore (Table.insert t ~key:k (row k amount true)))
    [ ("b", 2); ("a", 1); ("c", 3) ];
  Alcotest.(check (list string)) "sorted keys" [ "a"; "b"; "c" ] (Table.keys t);
  let total = Table.fold t ~init:0 ~f:(fun acc _ r -> acc + Value.as_int r.(1)) in
  Alcotest.(check int) "fold" 6 total;
  let seen = ref [] in
  Table.iter t (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list string)) "iter order" [ "a"; "b"; "c" ] (List.rev !seen)

let test_copy_independent () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  let snapshot = Table.copy t in
  ignore (Table.add_int t ~key:"p" ~col:"amount" 100);
  ignore (Table.insert t ~key:"q" (row "q" 1 false));
  (match Table.get_col snapshot ~key:"p" ~col:"amount" with
  | Ok (Value.Int 10) -> ()
  | _ -> Alcotest.fail "snapshot mutated");
  Alcotest.(check int) "snapshot size" 1 (Table.size snapshot);
  Alcotest.(check bool) "contents differ now" false (Table.equal_contents t snapshot)

let test_equal_contents () =
  let a = make () and b = make () in
  ignore (Table.insert a ~key:"p" (row "p" 10 true));
  ignore (Table.insert b ~key:"p" (row "p" 10 true));
  Alcotest.(check bool) "equal" true (Table.equal_contents a b);
  ignore (Table.add_int b ~key:"p" ~col:"amount" 1);
  Alcotest.(check bool) "differ" false (Table.equal_contents a b)

let fresh = make

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"random ops keep size = live keys" ~count:200
      (list_of_size Gen.(int_range 0 200) (pair (int_bound 20) small_signed_int))
      (fun ops ->
        let t = fresh () in
        (* key -> amount *)
        let model = Hashtbl.create 16 in
        List.iter
          (fun (k, d) ->
            let key = "k" ^ string_of_int k in
            if d >= 0 then begin
              (* insert or bump *)
              if Table.mem t ~key then ignore (Table.add_int t ~key ~col:"amount" d)
              else ignore (Table.insert t ~key (row key d true));
              Hashtbl.replace model key (d + Option.value ~default:0 (Hashtbl.find_opt model key))
            end
            else begin
              ignore (Table.delete t ~key);
              Hashtbl.remove model key
            end)
          ops;
        (* "k10" sorts before "k2": the order is String.compare's, which
           snapshots and joins depend on *)
        let sorted = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) model []) in
        let folded =
          Table.fold t ~init:[] ~f:(fun acc key r -> (key, Value.as_int r.(1)) :: acc)
        in
        Table.size t = Hashtbl.length model
        && Table.keys t = sorted
        && List.rev folded = List.map (fun k -> (k, Hashtbl.find model k)) sorted);
    Test.make ~name:"add_int sums match model" ~count:200
      (list_of_size Gen.(int_range 0 100) (int_range (-50) 50))
      (fun deltas ->
        let t = fresh () in
        ignore (Table.insert t ~key:"p" (row "p" 0 true));
        List.iter (fun d -> ignore (Table.add_int t ~key:"p" ~col:"amount" d)) deltas;
        match Table.get_col t ~key:"p" ~col:"amount" with
        | Ok (Value.Int n) -> n = List.fold_left ( + ) 0 deltas
        | _ -> false);
  ]

(* --- column handles --- *)

let amount_via h = Value.as_int (Table.handle_get h)

let test_handle_sees_named_writes () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  let h = Table.handle t ~key:"p" ~col:"amount" in
  (match Table.set_col t ~key:"p" ~col:"amount" (Value.Int 20) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "set_col seen through the handle" 20 (amount_via h);
  Alcotest.(check int) "the handle's add returns the value it replaced" 20
    (Value.as_int (Table.handle_add h 5));
  (match Table.get_col t ~key:"p" ~col:"amount" with
  | Ok v -> Alcotest.(check int) "the handle's add seen by name" 25 (Value.as_int v)
  | Error e -> Alcotest.fail e);
  (* An aborted update's undo writes by name, and the handle sees it. *)
  let db = Database.create () in
  let tbl = Database.create_table db ~name:"stock" (stock_schema ()) in
  ignore (Table.insert tbl ~key:"q" (row "q" 7 true));
  let hq = Table.handle tbl ~key:"q" ~col:"amount" in
  let txn = Database.begin_txn db in
  ignore (Database.add_int txn ~table:"stock" ~key:"q" ~col:"amount" 100);
  Alcotest.(check int) "tentative add seen" 107 (amount_via hq);
  Database.abort txn;
  Alcotest.(check int) "undo seen" 7 (amount_via hq);
  Alcotest.(check bool) "an update's undo removes nothing" true (Table.handle_live hq)

let stale name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s through a stale handle" name

let test_handle_ends_with_any_removal () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  ignore (Table.insert t ~key:"q" (row "q" 20 true));
  let h = Table.handle t ~key:"p" ~col:"amount" in
  ignore (Table.delete t ~key:"absent");
  Alcotest.(check bool) "a miss removes nothing" true (Table.handle_live h);
  ignore (Table.delete t ~key:"q");
  Alcotest.(check bool) "another row's removal ends it" false (Table.handle_live h);
  stale "a read" (fun () -> Table.handle_get h);
  stale "an add" (fun () -> Table.handle_add h 1);
  Alcotest.(check int) "a fresh handle works" 10
    (amount_via (Table.handle t ~key:"p" ~col:"amount"));
  (* Database.abort of an insert removes the inserted row. *)
  let db = Database.create () in
  let tbl = Database.create_table db ~name:"stock" (stock_schema ()) in
  ignore (Table.insert tbl ~key:"p" (row "p" 1 true));
  let h = Table.handle tbl ~key:"p" ~col:"amount" in
  let txn = Database.begin_txn db in
  ignore (Database.insert txn ~table:"stock" ~key:"new" (row "new" 1 true));
  Alcotest.(check bool) "an insert ends nothing" true (Table.handle_live h);
  Database.abort txn;
  Alcotest.(check bool) "the aborted insert ends it" false (Table.handle_live h);
  match Table.handle t ~key:"absent" ~col:"amount" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "a handle on a missing key"

let suites =
  [
    ( "store.schema",
      [
        Alcotest.test_case "basics" `Quick test_schema_basics;
        Alcotest.test_case "rejects duplicates" `Quick test_schema_rejects_duplicates;
        Alcotest.test_case "rejects empty" `Quick test_schema_rejects_empty;
        Alcotest.test_case "validate_row" `Quick test_validate_row;
      ] );
    ( "store.table",
      [
        Alcotest.test_case "insert/get" `Quick test_insert_get;
        Alcotest.test_case "get is a copy" `Quick test_get_is_copy;
        Alcotest.test_case "insert copies input" `Quick test_insert_copies_input;
        Alcotest.test_case "set_col" `Quick test_set_col;
        Alcotest.test_case "add_int" `Quick test_add_int;
        Alcotest.test_case "delete" `Quick test_delete;
        Alcotest.test_case "iteration" `Quick test_iteration;
        Alcotest.test_case "copy independent" `Quick test_copy_independent;
        Alcotest.test_case "equal_contents" `Quick test_equal_contents;
        Alcotest.test_case "handle sees named writes" `Quick test_handle_sees_named_writes;
        Alcotest.test_case "handle ends with any removal" `Quick
          test_handle_ends_with_any_removal;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
