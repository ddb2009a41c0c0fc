open Avdb_sim
open Avdb_core
open Avdb_av

let make ?(sync_interval = Some (Time.of_ms 20.)) () =
  Cluster.create
    {
      Config.default with
      Config.products =
        [
          Product.regular "widget" ~initial_amount:90;
          Product.regular "gadget" ~initial_amount:60;
        ];
      sync_interval;
      seed = 83;
    }

let run_update cluster site item delta =
  let result = ref None in
  Site.submit_update (Cluster.site cluster site) ~item ~delta (fun r -> result := Some r);
  Cluster.run cluster;
  Option.get !result

let join ?interest cluster =
  let outcome = ref None in
  let idx = Cluster.add_retailer ?interest cluster (fun r -> outcome := Some r) in
  Cluster.run cluster;
  match !outcome with
  | Some (i, Ok ()) when i = idx -> idx
  | Some (_, Error reason) -> Alcotest.failf "join failed: %a" Update.pp_reason reason
  | _ -> Alcotest.fail "join never completed"

let test_join_gets_current_data () =
  let cluster = make () in
  (* Move the world before the join; some deltas synced, some still pending. *)
  ignore (run_update cluster 1 "widget" (-25));
  Cluster.flush_all_syncs cluster;
  ignore (run_update cluster 2 "gadget" (-10));
  (* not flushed: the base does not know about -10 yet *)
  let idx = join cluster in
  Alcotest.(check int) "new index" 3 idx;
  Alcotest.(check int) "four sites now" 4 (Cluster.n_sites cluster);
  let newcomer = Cluster.site cluster idx in
  Alcotest.(check bool) "retailer role" true (Site.role newcomer = Site.Retailer);
  Alcotest.(check (option int)) "sees synced state" (Some 65)
    (Site.amount_of newcomer ~item:"widget");
  (* The unflushed -10 reaches it later without double-application. *)
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (option int)) "catches up on gadget" (Some 50)
    (Site.amount_of newcomer ~item:"gadget");
  Alcotest.(check (list int)) "all four replicas agree" [ 65; 65; 65; 65 ]
    (Cluster.replica_amounts cluster ~item:"widget")

let test_join_snapshot_not_double_applied () =
  (* The deltas already baked into the snapshot must not re-apply when the
     origins' counters arrive via sync notices. *)
  let cluster = make () in
  ignore (run_update cluster 1 "widget" (-30));
  Cluster.flush_all_syncs cluster;
  let idx = join cluster in
  ignore idx;
  (* Force every site to rebroadcast its full counters. *)
  Cluster.flush_all_syncs cluster;
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (option int)) "still 60, not 30" (Some 60)
    (Site.amount_of (Cluster.site cluster idx) ~item:"widget")

let test_joiner_updates_via_av_circulation () =
  let cluster = make () in
  let idx = join cluster in
  let newcomer = Cluster.site cluster idx in
  Alcotest.(check int) "starts with zero AV" 0
    (Av_table.available (Site.av_table newcomer) ~item:"widget");
  (* Its first sale must acquire AV from peers and succeed. *)
  let result = run_update cluster idx "widget" (-5) in
  (match result.Update.outcome with
  | Update.Applied (Update.With_transfer _) -> ()
  | _ -> Alcotest.failf "expected transfer-backed apply, got %a" Update.pp_result result);
  Cluster.flush_all_syncs cluster;
  (match Cluster.check_invariants cluster with Ok () -> () | Error e -> Alcotest.fail e);
  (* And existing sites can pull AV back from the newcomer later (half
     grants per donor, so the reachable volume is bounded per pass). *)
  let result2 = run_update cluster 1 "widget" (-50) in
  Alcotest.(check bool) "big sale drains several peers" true (Update.is_applied result2);
  let m = Site.metrics (Cluster.site cluster 1) in
  Alcotest.(check bool) "took multiple rounds" true (m.Update.Metrics.av_requests_sent >= 2)

let test_joiner_participates_in_immediate_updates () =
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.products = [ Product.non_regular "special" ~initial_amount:20 ];
        seed = 83;
      }
  in
  let idx = join cluster in
  Alcotest.(check int) "joined as site 3" 3 idx;
  let result = run_update cluster 1 "special" (-4) in
  Alcotest.(check bool) "commits with 4 sites" true (Update.is_applied result);
  Alcotest.(check (list int)) "newcomer included in 2PC" [ 16; 16; 16; 16 ]
    (Cluster.replica_amounts cluster ~item:"special");
  (* 2 rounds x 3 peers now *)
  let m = Site.metrics (Cluster.site cluster 1) in
  Alcotest.(check int) "one immediate apply" 1 m.Update.Metrics.applied_immediate;
  (* Under partial replication the coordinator keeps the item's cohort on
     its record: the join must renew it. Sites 0 and 1 store the item, the
     joiner subscribes, site 2 never does. *)
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.products = [ Product.non_regular "special" ~initial_amount:20 ];
        topology =
          { Topology.flat with Topology.replication = Topology.Explicit [ ("special", [ 1 ]) ] };
        seed = 83;
      }
  in
  Alcotest.(check bool) "commits before the join" true
    (Update.is_applied (run_update cluster 1 "special" (-2)));
  Alcotest.(check int) "joined as site 3" 3 (join ~interest:[ "special" ] cluster);
  Alcotest.(check bool) "commits after the join" true
    (Update.is_applied (run_update cluster 1 "special" (-4)));
  Alcotest.(check (list int)) "sites 0, 1 and the joiner agree" [ 14; 14; 14 ]
    (Cluster.replica_amounts cluster ~item:"special")

let test_join_with_base_down () =
  let cluster = make () in
  Site.crash (Cluster.base_site cluster);
  let outcome = ref None in
  ignore (Cluster.add_retailer cluster (fun r -> outcome := Some r));
  Cluster.run cluster;
  match !outcome with
  | Some (_, Error Update.Unreachable) -> ()
  | _ -> Alcotest.fail "expected Unreachable join failure"

(* A sync counter keeps its item's subscriber array, taken again when the
   topology version moves. A site that joins an item's explicit
   subscribers after the item's counter exists must therefore be notified
   by the unforced flushes the item's next change arms: the very next one
   without a fanout; at fanout 1, the one the rotation owes it, since its
   first flush goes to site 0. *)
let test_joiner_gets_existing_counter () =
  let check fanout =
    let cluster =
      Cluster.create
        {
          Config.default with
          Config.n_sites = 3;
          products =
            [
              Product.regular "widget" ~initial_amount:90;
              Product.regular "gadget" ~initial_amount:60;
            ];
          (* widget on sites 0 (its base) and 1, gadget on 0 and 2 *)
          topology =
            {
              Topology.flat with
              Topology.replication = Topology.Explicit [ ("widget", [ 1 ]); ("gadget", [ 2 ]) ];
            };
          sync_interval = Some (Time.of_ms 20.);
          sync_fanout = fanout;
          seed = 83;
        }
    in
    let label what =
      Printf.sprintf "%s (fanout %s)" what
        (match fanout with Some k -> string_of_int k | None -> "none")
    in
    (* site 1's widget counter exists, and has been flushed, before the
       join *)
    ignore (run_update cluster 1 "widget" 5);
    let idx = join ~interest:[ "widget" ] cluster in
    let joiner = Cluster.site cluster idx in
    Alcotest.(check (option int))
      (label "snapshot") (Some 95)
      (Site.amount_of joiner ~item:"widget");
    let sent = Avdb_net.Stats.total_sent (Cluster.net_stats cluster) in
    (* [run_update] runs the flushes the change arms, all unforced *)
    ignore (run_update cluster 1 "widget" 3);
    Alcotest.(check (option int)) (label "joiner has the change") (Some 98)
      (Site.amount_of joiner ~item:"widget");
    Alcotest.(check int) (label "joiner's stamp") 2
      (Site.applied_sync_version joiner ~origin:1 ~item:"widget");
    Alcotest.(check int) (label "one notice each to site 0 and the joiner") 2
      (Avdb_net.Stats.total_sent (Cluster.net_stats cluster) - sent)
  in
  check None;
  check (Some 1)

let test_thousand_joins_near_linear () =
  (* Regression: add_retailer used to Array.append the site store, and the
     AV-conservation probe after every run built its subscriber lists, so
     under full replication N sequential joins allocated O(N^2) words. The
     second 500 joins must allocate about as much as the first 500. *)
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.products = [ Product.regular "widget" ~initial_amount:1000 ];
        seed = 7;
      }
  in
  let join_quietly () =
    ignore (Cluster.add_retailer cluster (fun _ -> ()));
    Cluster.run cluster
  in
  (* An exact count: [Gc.allocated_bytes] can read short by as much as 130
     joins allocate here. *)
  let measure k =
    let b0 = Gen.allocated_bytes () in
    for _ = 1 to k do
      join_quietly ()
    done;
    Gen.allocated_bytes () -. b0
  in
  let first = measure 500 in
  let second = measure 500 in
  Alcotest.(check int) "all 1000 joins completed" 1003 (Cluster.n_sites cluster);
  if second > first *. 1.25 then
    Alcotest.failf "joins 501-1000 allocated %.0f bytes vs %.0f for joins 1-500" second
      first

let qcheck_tests =
  let open QCheck in
  [
    (* Random traffic interleaved with live joins keeps the whole-system
       invariants (replica agreement after flush, AV conservation). *)
    Test.make ~name:"joins during traffic keep invariants" ~count:25
      (pair (int_range 0 100)
         (list_of_size Gen.(int_range 1 40) (pair (int_bound 4) (int_range (-20) 25))))
      (fun (seed, ops) ->
        let cluster =
          Cluster.create
            {
              Config.default with
              Config.products = [ Product.regular "widget" ~initial_amount:200 ];
              sync_interval = Some (Time.of_ms 20.);
              seed = 1 + seed;
            }
        in
        let joins = ref 0 in
        List.iter
          (fun (site, delta) ->
            if delta = 0 && !joins < 2 then begin
              incr joins;
              ignore (Cluster.add_retailer cluster (fun _ -> ()));
              Cluster.run cluster
            end
            else if delta <> 0 then begin
              let site = site mod Cluster.n_sites cluster in
              Site.submit_update (Cluster.site cluster site) ~item:"widget" ~delta
                (fun _ -> ())
            end)
          ops;
        Cluster.run cluster;
        Cluster.flush_all_syncs cluster;
        Result.is_ok (Cluster.check_invariants cluster));
  ]

let suites =
  [
    ( "core.membership",
      [
        Alcotest.test_case "join gets current data" `Quick test_join_gets_current_data;
        Alcotest.test_case "snapshot not double-applied" `Quick test_join_snapshot_not_double_applied;
        Alcotest.test_case "joiner updates via AV circulation" `Quick
          test_joiner_updates_via_av_circulation;
        Alcotest.test_case "joiner in immediate updates" `Quick
          test_joiner_participates_in_immediate_updates;
        Alcotest.test_case "join with base down" `Quick test_join_with_base_down;
        Alcotest.test_case "1000 joins near-linear" `Slow test_thousand_joins_near_linear;
        Alcotest.test_case "a joiner gets an existing counter" `Quick
          test_joiner_gets_existing_counter;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
