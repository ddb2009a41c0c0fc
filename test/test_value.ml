open Avdb_store

let v = Alcotest.testable Value.pp Value.equal

let test_types () =
  Alcotest.(check string) "int" "int" (Value.ty_name (Value.type_of (Value.Int 1)));
  Alcotest.(check string) "float" "float" (Value.ty_name (Value.type_of (Value.Float 1.)));
  Alcotest.(check string) "str" "string" (Value.ty_name (Value.type_of (Value.Str "")));
  Alcotest.(check string) "bool" "bool" (Value.ty_name (Value.type_of (Value.Bool true)))

let test_add_int () =
  Alcotest.check v "int add" (Value.Int 7) (Value.add_int (Value.Int 4) 3);
  Alcotest.check v "int sub" (Value.Int (-2)) (Value.add_int (Value.Int 4) (-6));
  Alcotest.check v "float add" (Value.Float 5.5) (Value.add_int (Value.Float 2.5) 3);
  (match Value.add_int (Value.Str "x") 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "string add should raise");
  match Value.add_int (Value.Bool true) 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bool add should raise"

let test_coercions () =
  Alcotest.(check int) "as_int" 5 (Value.as_int (Value.Int 5));
  Alcotest.(check (float 0.)) "as_float from int" 5. (Value.as_float (Value.Int 5));
  Alcotest.(check (float 0.)) "as_float" 2.5 (Value.as_float (Value.Float 2.5));
  Alcotest.(check string) "as_string" "hi" (Value.as_string (Value.Str "hi"));
  Alcotest.(check bool) "as_bool" true (Value.as_bool (Value.Bool true));
  match Value.as_int (Value.Str "5") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "as_int on string should raise"

let test_encode_decode () =
  let roundtrip value =
    match Value.decode (Value.encode value) with
    | Ok decoded -> Alcotest.check v "roundtrip" value decoded
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  List.iter roundtrip
    [
      Value.Int 0;
      Value.Int (-123456);
      Value.Int max_int;
      Value.Float 0.1;
      Value.Float (-1e300);
      Value.Float infinity;
      Value.Str "";
      Value.Str "with|pipes,commas:and\nnewlines";
      Value.Str "ünïcode";
      Value.Bool true;
      Value.Bool false;
    ]

let test_decode_errors () =
  let is_err s =
    match Value.decode s with Error _ -> () | Ok _ -> Alcotest.failf "decoded %S" s
  in
  List.iter is_err [ ""; "x:1"; "i:abc"; "f:zz"; "b:maybe"; "s:0g"; "s:0"; "notag" ]

let qcheck_tests =
  let open QCheck in
  let value_gen =
    Gen.(
      oneof
        [
          map (fun n -> Value.Int n) int;
          map (fun x -> Value.Float x) float;
          map (fun s -> Value.Str s) string;
          map (fun b -> Value.Bool b) bool;
        ])
  in
  let arb = make ~print:Value.to_string value_gen in
  [
    Test.make ~name:"encode/decode roundtrip" ~count:1000 arb (fun value ->
        match Value.decode (Value.encode value) with
        | Ok decoded ->
            (* NaN /= NaN under Float.equal? Float.equal nan nan = true. *)
            Value.equal value decoded
        | Error _ -> false);
    Test.make ~name:"add_int accumulates" ~count:500 (pair int small_signed_int)
      (fun (base, d) ->
        Value.as_int (Value.add_int (Value.Int base) d) = base + d);
  ]

let suites =
  [
    ( "store.value",
      [
        Alcotest.test_case "types" `Quick test_types;
        Alcotest.test_case "add_int" `Quick test_add_int;
        Alcotest.test_case "coercions" `Quick test_coercions;
        Alcotest.test_case "encode/decode" `Quick test_encode_decode;
        Alcotest.test_case "decode errors" `Quick test_decode_errors;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
