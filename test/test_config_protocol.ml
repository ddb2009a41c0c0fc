open Avdb_net
open Avdb_core

(* --- Config validation --- *)

let test_default_valid () =
  match Config.validate Config.default with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_rejections () =
  let bad =
    [
      ("no sites", { Config.default with Config.n_sites = 0 });
      ("no products", { Config.default with Config.products = [] });
      ("drop > 1", { Config.default with Config.drop_probability = 1.5 });
      ("drop < 0", { Config.default with Config.drop_probability = -0.1 });
      ( "duplicate products",
        {
          Config.default with
          Config.products =
            [ Product.regular "a" ~initial_amount:1; Product.regular "a" ~initial_amount:2 ];
        } );
      ("prefetch < 1", { Config.default with Config.prefetch_low = Some 0 });
    ]
  in
  List.iter
    (fun (tag, config) ->
      match Config.validate config with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" tag)
    bad

let test_pp_smoke () =
  let rendered = Format.asprintf "%a" Config.pp Config.default in
  Alcotest.(check bool) "mentions mode" true
    (String.length rendered > 0
    &&
    let found = ref false in
    String.iteri
      (fun i _ ->
        if i + 10 <= String.length rendered && String.sub rendered i 10 = "autonomous" then
          found := true)
      rendered;
    !found)

(* --- Product --- *)

let test_product_catalogue () =
  let products = Product.catalogue ~n_regular:3 ~n_non_regular:2 ~initial_amount:7 in
  Alcotest.(check int) "count" 5 (List.length products);
  Alcotest.(check int) "regular count" 3
    (List.length (List.filter Product.is_regular products));
  Alcotest.(check (list string)) "names"
    [ "product0"; "product1"; "product2"; "special0"; "special1" ]
    (List.map (fun p -> p.Product.name) products);
  Alcotest.(check bool) "initials" true
    (List.for_all (fun p -> p.Product.initial_amount = 7) products);
  match Product.regular "x" ~initial_amount:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative initial accepted"

(* --- Protocol printers (coverage smoke) --- *)

let test_protocol_printers () =
  let render_req r = Format.asprintf "%a" Protocol.pp_request r in
  let render_resp r = Format.asprintf "%a" Protocol.pp_response r in
  let reqs =
    [
      Protocol.Av_request
        { item = "x"; amount = 3; requester_available = 1; sync = [ ("x", 2, 5) ] };
      Protocol.Central_update { item = "x"; delta = -2 };
      Protocol.Prepare
        {
          txid = 1;
          coordinator = Address.of_int 0;
          cohort = [ Address.of_int 1; Address.of_int 2 ];
          item = "x";
          delta = 1;
        };
      Protocol.Decision { txid = 1; decision = Avdb_txn.Two_phase.Commit };
      Protocol.Read_request { item = "x" };
      Protocol.Query_decision { txid = 1 };
      Protocol.Peer_decision_query { txid = 1 };
    ]
  in
  List.iter (fun r -> Alcotest.(check bool) "request renders" true (render_req r <> "")) reqs;
  let resps =
    [
      Protocol.Av_grant
        { granted = 1; donor_available = 2; av_levels = [ ("x", 2) ]; sync = [] };
      Protocol.Central_ack { status = Protocol.Central_applied; new_amount = 3 };
      Protocol.Central_ack { status = Protocol.Central_insufficient; new_amount = 0 };
      Protocol.Central_ack { status = Protocol.Central_unknown_item; new_amount = 0 };
      Protocol.Vote { txid = 1; vote = Avdb_txn.Two_phase.Ready };
      Protocol.Decision_ack { txid = 1 };
      Protocol.Read_value { amount = None };
      Protocol.Decision_status { txid = 1; status = Protocol.Still_pending };
      Protocol.Peer_decision_status { txid = 1; status = Protocol.Peer_prepared };
      Protocol.Peer_decision_status { txid = 1; status = Protocol.Peer_will_refuse };
      Protocol.Peer_decision_status
        { txid = 1; status = Protocol.Peer_decided Avdb_txn.Two_phase.Abort };
      Protocol.Bad_request "oops";
    ]
  in
  List.iter (fun r -> Alcotest.(check bool) "response renders" true (render_resp r <> "")) resps;
  Alcotest.(check bool) "notice renders" true
    (Format.asprintf "%a" Protocol.pp_notice
       (Protocol.Sync_counters { counters = [ ("x", 1, 1) ]; av_info = []; ack = 1 })
    <> "")

(* --- Centralized-mode edge cases --- *)

let central_cluster () =
  Cluster.create
    {
      Config.default with
      Config.mode = Config.Centralized;
      products = [ Product.regular "widget" ~initial_amount:50 ];
      seed = 71;
    }

let submit cluster site ~delta =
  let result = ref None in
  Site.submit_update (Cluster.site cluster site) ~item:"widget" ~delta (fun r ->
      result := Some r);
  Cluster.run cluster;
  Option.get !result

let test_central_base_local_update () =
  let cluster = central_cluster () in
  let result = submit cluster 0 ~delta:(-10) in
  (match result.Update.outcome with
  | Update.Applied Update.Central -> ()
  | _ -> Alcotest.failf "expected central apply, got %a" Update.pp_result result);
  Alcotest.(check int) "no messages for base-local" 0 (Cluster.total_correspondences cluster)

let test_central_insufficient_stock () =
  let cluster = central_cluster () in
  let result = submit cluster 1 ~delta:(-60) in
  (match result.Update.outcome with
  | Update.Rejected Update.Insufficient_stock -> ()
  | _ -> Alcotest.failf "expected Insufficient_stock, got %a" Update.pp_result result);
  Alcotest.(check (option int)) "base unchanged" (Some 50)
    (Site.amount_of (Cluster.base_site cluster) ~item:"widget")

let test_central_base_down () =
  let cluster = central_cluster () in
  Site.crash (Cluster.base_site cluster);
  let result = submit cluster 1 ~delta:(-1) in
  match result.Update.outcome with
  | Update.Rejected Update.Unreachable -> ()
  | _ -> Alcotest.failf "expected Unreachable, got %a" Update.pp_result result

let test_central_updates_serialized_at_base () =
  let cluster = central_cluster () in
  let settled = ref 0 in
  for _ = 1 to 30 do
    Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-1) (fun _ ->
        incr settled);
    Site.submit_update (Cluster.site cluster 2) ~item:"widget" ~delta:(-1) (fun _ ->
        incr settled)
  done;
  Cluster.run cluster;
  Alcotest.(check int) "all settled" 60 !settled;
  (* 50 in stock, 60 requested: 50 applied, 10 rejected; never negative. *)
  Alcotest.(check (option int)) "never oversold" (Some 0)
    (Site.amount_of (Cluster.base_site cluster) ~item:"widget")

let suites =
  [
    ( "core.config",
      [
        Alcotest.test_case "default valid" `Quick test_default_valid;
        Alcotest.test_case "rejections" `Quick test_rejections;
        Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        Alcotest.test_case "product catalogue" `Quick test_product_catalogue;
        Alcotest.test_case "protocol printers" `Quick test_protocol_printers;
      ] );
    ( "core.centralized",
      [
        Alcotest.test_case "base-local update" `Quick test_central_base_local_update;
        Alcotest.test_case "insufficient stock" `Quick test_central_insufficient_stock;
        Alcotest.test_case "base down" `Quick test_central_base_down;
        Alcotest.test_case "serialized at base" `Quick test_central_updates_serialized_at_base;
      ] );
  ]
