open Avdb_av

let make () =
  let t = Av_table.create () in
  Av_table.define t ~item:"productA" ~volume:40;
  t

(* The item's entry, through which release, deposit, withdraw and
   hold-all move volume. *)
let entry t ~item = Av_table.entry_or_no_entry t ~item

let ok tag = function Ok () -> () | Error e -> Alcotest.failf "%s: %s" tag e
let expect_error tag = function Error _ -> () | Ok () -> Alcotest.failf "%s: expected error" tag

let test_define () =
  let t = make () in
  Alcotest.(check bool) "defined" true
    (Av_table.entry_or_no_entry t ~item:"productA" != Av_table.no_entry);
  Alcotest.(check bool) "undefined" true
    (Av_table.entry_or_no_entry t ~item:"productB" == Av_table.no_entry);
  Alcotest.(check int) "available" 40 (Av_table.available t ~item:"productA");
  Alcotest.(check int) "held" 0 (Av_table.held t ~item:"productA");
  Alcotest.(check int) "undefined available is 0" 0 (Av_table.available t ~item:"productB");
  (match Av_table.define t ~item:"productA" ~volume:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double define accepted");
  match Av_table.define t ~item:"neg" ~volume:(-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative volume accepted"

(* An item without AV gets the shared placeholder, which every entry form
   refuses as the named forms refuse the item, and which moves nothing. *)
let test_no_entry () =
  let t = make () in
  let e = Av_table.entry_or_no_entry t ~item:"productB" in
  Alcotest.(check bool) "an item without AV gets no_entry" true (e == Av_table.no_entry);
  expect_error "hold on no_entry" (Av_table.entry_hold e 1);
  expect_error "consume on no_entry" (Av_table.entry_consume e 0);
  expect_error "mint on no_entry" (Av_table.entry_mint e 1);
  expect_error "release on no_entry" (Av_table.entry_release e 0);
  expect_error "deposit on no_entry" (Av_table.entry_deposit e 1);
  expect_error "withdraw on no_entry" (Av_table.entry_withdraw e 0);
  Alcotest.(check int) "hold_all on no_entry holds 0" 0 (Av_table.entry_hold_all e);
  Alcotest.(check int) "nothing available" 0 (Av_table.entry_available e);
  expect_error "the named form refuses the item too" (Av_table.mint t ~item:"productB" 1);
  Alcotest.(check int) "the defined item is untouched" 40
    (Av_table.entry_available (Av_table.entry_or_no_entry t ~item:"productA"))

let test_hold_consume () =
  let t = make () in
  ok "hold" (Av_table.hold t ~item:"productA" 30);
  Alcotest.(check int) "available after hold" 10 (Av_table.available t ~item:"productA");
  Alcotest.(check int) "held after hold" 30 (Av_table.held t ~item:"productA");
  Alcotest.(check int) "total invariant" 40 (Av_table.total t ~item:"productA");
  ok "consume" (Av_table.consume t ~item:"productA" 30);
  Alcotest.(check int) "held consumed" 0 (Av_table.held t ~item:"productA");
  Alcotest.(check int) "total shrank" 10 (Av_table.total t ~item:"productA")

let test_hold_insufficient () =
  let t = make () in
  expect_error "hold too much" (Av_table.hold t ~item:"productA" 41);
  Alcotest.(check int) "nothing moved" 40 (Av_table.available t ~item:"productA");
  expect_error "hold undefined" (Av_table.hold t ~item:"nope" 1)

let test_hold_release () =
  let t = make () in
  let e = entry t ~item:"productA" in
  ok "hold" (Av_table.hold t ~item:"productA" 25);
  ok "release part" (Av_table.entry_release e 10);
  Alcotest.(check int) "held" 15 (Av_table.held t ~item:"productA");
  Alcotest.(check int) "available" 25 (Av_table.available t ~item:"productA");
  expect_error "release too much" (Av_table.entry_release e 16);
  ok "release rest" (Av_table.entry_release e 15);
  Alcotest.(check int) "all back" 40 (Av_table.available t ~item:"productA")

let test_hold_all () =
  let t = make () in
  let e = entry t ~item:"productA" in
  ok "pre-hold" (Av_table.hold t ~item:"productA" 5);
  Alcotest.(check int) "grabs the rest" 35 (Av_table.entry_hold_all e);
  Alcotest.(check int) "available empty" 0 (Av_table.available t ~item:"productA");
  Alcotest.(check int) "held everything" 40 (Av_table.held t ~item:"productA");
  Alcotest.(check int) "hold_all again is 0" 0 (Av_table.entry_hold_all e);
  Alcotest.(check int) "undefined hold_all is 0" 0
    (Av_table.entry_hold_all (entry t ~item:"nope"))

let test_deposit_withdraw () =
  let t = make () in
  let e = entry t ~item:"productA" in
  ok "deposit" (Av_table.entry_deposit e 30);
  Alcotest.(check int) "deposited" 70 (Av_table.available t ~item:"productA");
  ok "withdraw" (Av_table.entry_withdraw e 50);
  Alcotest.(check int) "withdrawn" 20 (Av_table.available t ~item:"productA");
  expect_error "overdraw" (Av_table.entry_withdraw e 21);
  expect_error "withdraw undefined" (Av_table.entry_withdraw (entry t ~item:"nope") 1)

let test_negative_amounts_rejected () =
  let t = make () in
  let e = entry t ~item:"productA" in
  List.iter
    (fun (tag, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted negative" tag)
    [
      ("hold", fun () -> ignore (Av_table.hold t ~item:"productA" (-1)));
      ("release", fun () -> ignore (Av_table.entry_release e (-1)));
      ("consume", fun () -> ignore (Av_table.consume t ~item:"productA" (-1)));
      ("deposit", fun () -> ignore (Av_table.entry_deposit e (-1)));
      ("withdraw", fun () -> ignore (Av_table.entry_withdraw e (-1)));
    ]

let test_paper_example () =
  (* Fig. 1: site 1 has AV 20, wants to update -30; it is short 10, gets
     +30 from site 0, then updates. AV afterwards: 20. *)
  let site1 = Av_table.create () in
  Av_table.define site1 ~item:"productA" ~volume:20;
  let delta = 30 in
  Alcotest.(check bool) "short" true (Av_table.available site1 ~item:"productA" < delta);
  let e = entry site1 ~item:"productA" in
  let grabbed = Av_table.entry_hold_all e in
  Alcotest.(check int) "holds all 20" 20 grabbed;
  (* transfer arrives *)
  ok "deposit grant" (Av_table.entry_deposit e 30);
  ok "hold shortage" (Av_table.hold site1 ~item:"productA" (delta - grabbed));
  ok "consume for update" (Av_table.consume site1 ~item:"productA" delta);
  Alcotest.(check int) "paper: AV at site1 becomes 20" 20
    (Av_table.total site1 ~item:"productA")

let test_items_and_sum () =
  let t = make () in
  Av_table.define t ~item:"b" ~volume:3;
  Av_table.define t ~item:"a" ~volume:7;
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "productA" ] (Av_table.items t);
  Alcotest.(check int) "sum of totals" 50
    (List.fold_left (fun acc item -> acc + Av_table.total t ~item) 0 (Av_table.items t))


let test_snapshot () =
  let t = make () in
  Av_table.define t ~item:"b" ~volume:10;
  ok "hold" (Av_table.hold t ~item:"productA" 15);
  Alcotest.(check (list (triple string int int))) "snapshot sorted"
    [ ("b", 10, 0); ("productA", 25, 15) ]
    (Av_table.snapshot t)

let qcheck_tests =
  let open QCheck in
  (* Conservation: applying random valid ops, total = initial + deposits -
     consumed - withdrawn, and available/held never negative. *)
  let op_gen =
    Gen.(
      oneof
        [
          map (fun n -> `Hold n) (int_bound 30);
          map (fun n -> `Release n) (int_bound 30);
          map (fun n -> `Consume n) (int_bound 30);
          map (fun n -> `Deposit n) (int_bound 30);
          map (fun n -> `Withdraw n) (int_bound 30);
          return `Hold_all;
        ])
  in
  [
    (* The named forms call the entry forms: the same results, failures
       included, and the same volumes and ledger. *)
    Test.make ~name:"entry ops move what named ops move" ~count:300
      (make
         ~print:(fun l -> string_of_int (List.length l))
         Gen.(
           list_size (int_range 0 60)
             (oneof
                [
                  map (fun n -> `Hold n) (int_bound 40);
                  map (fun n -> `Consume n) (int_bound 40);
                  map (fun n -> `Mint n) (int_bound 40);
                ])))
      (fun ops ->
        let named = Av_table.create () and by_entry = Av_table.create () in
        List.iter (fun t -> Av_table.define t ~item:"x" ~volume:50) [ named; by_entry ];
        let e = Av_table.entry_or_no_entry by_entry ~item:"x" in
        let same_results =
          List.for_all
            (fun op ->
              let by_name, through_entry =
                match op with
                | `Hold n -> (Av_table.hold named ~item:"x" n, Av_table.entry_hold e n)
                | `Consume n -> (Av_table.consume named ~item:"x" n, Av_table.entry_consume e n)
                | `Mint n -> (Av_table.mint named ~item:"x" n, Av_table.entry_mint e n)
              in
              by_name = through_entry)
            ops
        in
        let volumes t =
          List.map
            (fun f -> f t ~item:"x")
            [ Av_table.available; Av_table.held; Av_table.minted; Av_table.consumed ]
        in
        same_results
        && volumes named = volumes by_entry
        && Av_table.entry_available e = Av_table.available named ~item:"x");
    Test.make ~name:"AV conservation under random ops" ~count:500
      (make
         ~print:(fun l -> string_of_int (List.length l))
         Gen.(list_size (int_range 0 100) op_gen))
      (fun ops ->
        let t = Av_table.create () in
        Av_table.define t ~item:"x" ~volume:100;
        let e = entry t ~item:"x" in
        let deposited = ref 0 and consumed = ref 0 and withdrawn = ref 0 in
        List.iter
          (fun op ->
            match op with
            | `Hold n -> ignore (Av_table.hold t ~item:"x" n)
            | `Release n -> ignore (Av_table.entry_release e n)
            | `Consume n -> (
                match Av_table.consume t ~item:"x" n with
                | Ok () -> consumed := !consumed + n
                | Error _ -> ())
            | `Deposit n -> (
                match Av_table.entry_deposit e n with
                | Ok () -> deposited := !deposited + n
                | Error _ -> ())
            | `Withdraw n -> (
                match Av_table.entry_withdraw e n with
                | Ok () -> withdrawn := !withdrawn + n
                | Error _ -> ())
            | `Hold_all -> ignore (Av_table.entry_hold_all e))
          ops;
        Av_table.available t ~item:"x" >= 0
        && Av_table.held t ~item:"x" >= 0
        && Av_table.total t ~item:"x" = 100 + !deposited - !consumed - !withdrawn);
  ]

let suites =
  [
    ( "av.av_table",
      [
        Alcotest.test_case "define" `Quick test_define;
        Alcotest.test_case "no entry" `Quick test_no_entry;
        Alcotest.test_case "hold/consume" `Quick test_hold_consume;
        Alcotest.test_case "hold insufficient" `Quick test_hold_insufficient;
        Alcotest.test_case "hold/release" `Quick test_hold_release;
        Alcotest.test_case "hold_all" `Quick test_hold_all;
        Alcotest.test_case "deposit/withdraw" `Quick test_deposit_withdraw;
        Alcotest.test_case "negative amounts rejected" `Quick test_negative_amounts_rejected;
        Alcotest.test_case "paper fig.1 example" `Quick test_paper_example;
        Alcotest.test_case "items and sum" `Quick test_items_and_sum;
        Alcotest.test_case "snapshot" `Quick test_snapshot;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
