open Avdb_sim
open Avdb_net
open Avdb_av

let addr = Address.of_int
let at us = Time.of_us us
let no_exclude = Address.Set.empty

let test_observe_and_lookup () =
  let v = Peer_view.create () in
  Peer_view.observe v ~site:(addr 0) ~item:"a" ~volume:40 ~at:(at 10);
  Peer_view.observe v ~site:(addr 2) ~item:"a" ~volume:15 ~at:(at 20);
  Alcotest.(check (option int)) "site0" (Some 40) (Peer_view.volume_of v ~site:(addr 0) ~item:"a");
  Alcotest.(check (option int)) "site2" (Some 15) (Peer_view.volume_of v ~site:(addr 2) ~item:"a");
  Alcotest.(check (option int)) "unknown site" None (Peer_view.volume_of v ~site:(addr 1) ~item:"a");
  Alcotest.(check (option int)) "unknown item" None (Peer_view.volume_of v ~site:(addr 0) ~item:"b");
  Alcotest.(check int) "known count" 2 (List.length (Peer_view.known v ~item:"a"))

let test_newer_wins () =
  let v = Peer_view.create () in
  Peer_view.observe v ~site:(addr 0) ~item:"a" ~volume:40 ~at:(at 10);
  Peer_view.observe v ~site:(addr 0) ~item:"a" ~volume:5 ~at:(at 20);
  Alcotest.(check (option int)) "newer kept" (Some 5) (Peer_view.volume_of v ~site:(addr 0) ~item:"a")

let test_stale_ignored () =
  let v = Peer_view.create () in
  Peer_view.observe v ~site:(addr 0) ~item:"a" ~volume:5 ~at:(at 20);
  Peer_view.observe v ~site:(addr 0) ~item:"a" ~volume:40 ~at:(at 10);
  Alcotest.(check (option int)) "stale ignored" (Some 5) (Peer_view.volume_of v ~site:(addr 0) ~item:"a")

let test_richest () =
  let v = Peer_view.create () in
  Peer_view.observe v ~site:(addr 0) ~item:"a" ~volume:40 ~at:(at 1);
  Peer_view.observe v ~site:(addr 1) ~item:"a" ~volume:90 ~at:(at 1);
  Peer_view.observe v ~site:(addr 2) ~item:"a" ~volume:90 ~at:(at 1);
  (match Peer_view.richest v ~item:"a" ~exclude:no_exclude with
  | Some site -> Alcotest.(check int) "tie to smaller address" 1 (Address.to_int site)
  | None -> Alcotest.fail "expected a site");
  (match Peer_view.richest v ~item:"a" ~exclude:(Address.Set.singleton (addr 1)) with
  | Some site -> Alcotest.(check int) "exclusion respected" 2 (Address.to_int site)
  | None -> Alcotest.fail "expected a site");
  let all = Address.Set.of_list [ addr 0; addr 1; addr 2 ] in
  Alcotest.(check bool) "all excluded" true
    (Option.is_none (Peer_view.richest v ~item:"a" ~exclude:all));
  Alcotest.(check bool) "unknown item" true
    (Option.is_none (Peer_view.richest v ~item:"zzz" ~exclude:no_exclude))

(* An item's entry observes as the named form does, into the same
   observations, and the shared placeholder refuses to be observed into. *)
let test_entry () =
  let v = Peer_view.create () in
  let a = Peer_view.entry v ~item:"a" in
  Peer_view.observe_entry a ~site:(addr 0) ~volume:40 ~at:(at 10);
  Peer_view.observe v ~site:(addr 0) ~item:"a" ~volume:5 ~at:(at 5);
  Alcotest.(check (option int)) "stale named observation ignored" (Some 40)
    (Peer_view.volume_of v ~site:(addr 0) ~item:"a");
  Peer_view.observe_entry (Peer_view.entry v ~item:"a") ~site:(addr 1) ~volume:7 ~at:(at 20);
  Alcotest.(check int) "one entry per item" 2 (List.length (Peer_view.known v ~item:"a"));
  Alcotest.(check (list string)) "items" [ "a" ] (Peer_view.items v);
  Alcotest.check_raises "no_entry refused"
    (Invalid_argument "Peer_view.observe_entry: no_entry") (fun () ->
      Peer_view.observe_entry Peer_view.no_entry ~site:(addr 0) ~volume:1 ~at:(at 1))

let test_items () =
  let v = Peer_view.create () in
  Peer_view.observe v ~site:(addr 0) ~item:"b" ~volume:1 ~at:(at 1);
  Peer_view.observe v ~site:(addr 0) ~item:"a" ~volume:1 ~at:(at 1);
  Alcotest.(check (list string)) "sorted items" [ "a"; "b" ] (Peer_view.items v)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"richest is argmax of observations" ~count:500
      (list_of_size Gen.(int_range 1 20) (triple (int_bound 5) (int_bound 100) (int_bound 100)))
      (fun obs ->
        let v = Peer_view.create () in
        let model = Hashtbl.create 8 in
        List.iter
          (fun (site, volume, time) ->
            Peer_view.observe v ~site:(addr site) ~item:"x" ~volume ~at:(at time);
            (* model: keep the newest (last write wins only if >= time) *)
            match Hashtbl.find_opt model site with
            | Some (_, prev_time) when prev_time > time -> ()
            | _ -> Hashtbl.replace model site (volume, time))
          obs;
        match Peer_view.richest v ~item:"x" ~exclude:no_exclude with
        | None -> Hashtbl.length model = 0
        | Some best ->
            let best_vol, _ = Hashtbl.find model (Address.to_int best) in
            Hashtbl.fold (fun _ (vol, _) acc -> acc && vol <= best_vol) model true);
    (* Staleness monotonicity: per (site, item) the view always holds the
       observation with the newest timestamp seen so far (a tie lets the
       later observe win); an older observation never overwrites it. *)
    Test.make ~name:"stale observations never overwrite newer ones" ~count:500
      (list_of_size Gen.(int_range 1 40)
         (quad (int_bound 3) (int_bound 1) (int_bound 50) (int_bound 30)))
      (fun obs ->
        let v = Peer_view.create () in
        let model = Hashtbl.create 8 in
        List.for_all
          (fun (site, item_i, volume, time) ->
            let item = if item_i = 0 then "a" else "b" in
            Peer_view.observe v ~site:(addr site) ~item ~volume ~at:(at time);
            (match Hashtbl.find_opt model (site, item) with
            | Some (_, prev) when prev > time -> ()
            | _ -> Hashtbl.replace model (site, item) (volume, time));
            Peer_view.volume_of v ~site:(addr site) ~item
            = Option.map fst (Hashtbl.find_opt model (site, item)))
          obs);
  ]

let suites =
  [
    ( "av.peer_view",
      [
        Alcotest.test_case "observe and lookup" `Quick test_observe_and_lookup;
        Alcotest.test_case "newer wins" `Quick test_newer_wins;
        Alcotest.test_case "stale ignored" `Quick test_stale_ignored;
        Alcotest.test_case "richest" `Quick test_richest;
        Alcotest.test_case "entry observes in place" `Quick test_entry;
        Alcotest.test_case "items" `Quick test_items;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
