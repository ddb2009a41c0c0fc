open Avdb_sim
open Avdb_net
open Avdb_core
open Avdb_av

(* One regular item, 3 sites, even AV allocation (34/33/33 of 100). *)
let small_config ?(n_sites = 3) ?(allocation = Config.Even) ?(strategy = Strategy.paper)
    ?(initial_amount = 100) () =
  {
    Config.default with
    Config.n_sites;
    allocation;
    strategy;
    products = [ Product.regular "widget" ~initial_amount ];
    seed = 99;
  }

let make ?n_sites ?allocation ?strategy ?initial_amount () =
  Cluster.create (small_config ?n_sites ?allocation ?strategy ?initial_amount ())

let submit cluster site_index ~delta =
  let result = ref None in
  Site.submit_update (Cluster.site cluster site_index) ~item:"widget" ~delta (fun r ->
      result := Some r);
  Cluster.run cluster;
  match !result with Some r -> r | None -> Alcotest.fail "update never completed"

let applied_kind = function
  | { Update.outcome = Update.Applied kind; _ } -> kind
  | r -> Alcotest.failf "expected applied, got %a" Update.pp_result r

let corr cluster = Cluster.total_correspondences cluster

let test_positive_delta_is_local () =
  let cluster = make () in
  let result = submit cluster 0 ~delta:15 in
  Alcotest.(check bool) "local" true (applied_kind result = Update.Local);
  Alcotest.(check int) "no correspondences" 0 (corr cluster);
  Alcotest.(check (option int)) "maker replica updated" (Some 115)
    (Site.amount_of (Cluster.site cluster 0) ~item:"widget");
  Alcotest.(check int) "maker AV grew" 49
    (Av_table.available (Site.av_table (Cluster.site cluster 0)) ~item:"widget");
  Alcotest.(check (option int)) "retailer replica untouched until sync" (Some 100)
    (Site.amount_of (Cluster.site cluster 1) ~item:"widget")

let test_negative_within_av_is_local () =
  let cluster = make () in
  let result = submit cluster 1 ~delta:(-20) in
  Alcotest.(check bool) "local" true (applied_kind result = Update.Local);
  Alcotest.(check int) "no correspondences" 0 (corr cluster);
  Alcotest.(check (option int)) "replica decreased" (Some 80)
    (Site.amount_of (Cluster.site cluster 1) ~item:"widget");
  Alcotest.(check int) "AV consumed" 13
    (Av_table.available (Site.av_table (Cluster.site cluster 1)) ~item:"widget");
  Alcotest.(check int) "latency zero for local path" 0 (Time.to_us result.Update.latency)

let test_fig1_transfer () =
  (* Reshape AV to the paper's Fig. 1: 40 / 20 / 40, then update -30 at
     site 1. The shortage is 10; the cold-cache selection falls back to the
     base, which holds 40 and (Half) grants 20. *)
  let cluster = make () in
  let av i = Site.av_table (Cluster.site cluster i) in
  let force_ok = function Ok () -> () | Error e -> Alcotest.fail e in
  force_ok (Av_table.withdraw (av 0) ~item:"widget" 34);
  force_ok (Av_table.deposit (av 0) ~item:"widget" 40);
  force_ok (Av_table.withdraw (av 1) ~item:"widget" 33);
  force_ok (Av_table.deposit (av 1) ~item:"widget" 20);
  force_ok (Av_table.withdraw (av 2) ~item:"widget" 33);
  force_ok (Av_table.deposit (av 2) ~item:"widget" 40);
  let result = submit cluster 1 ~delta:(-30) in
  (match applied_kind result with
  | Update.With_transfer 1 -> ()
  | k -> Alcotest.failf "expected 1 transfer round, got %a" Update.pp_kind k);
  Alcotest.(check int) "one correspondence" 1 (corr cluster);
  Alcotest.(check (option int)) "data updated at site 1" (Some 70)
    (Site.amount_of (Cluster.site cluster 1) ~item:"widget");
  Alcotest.(check int) "site1 keeps surplus AV" 10 (Av_table.total (av 1) ~item:"widget");
  Alcotest.(check int) "site0 donated half" 20 (Av_table.total (av 0) ~item:"widget");
  Alcotest.(check int) "site2 untouched" 40 (Av_table.total (av 2) ~item:"widget");
  Alcotest.(check bool) "transfer has nonzero latency" true
    Time.(result.Update.latency > Time.zero)

let test_multi_round_transfer () =
  (* Exact granting: each donor gives only the shortage it can cover, so a
     large demand walks several peers. Sites hold 25/25/25/25; site 3 asks
     for 80: needs grants from all three peers. *)
  let strategy = { Strategy.paper with Strategy.granting = Strategy.Granting.Exact } in
  let cluster = make ~n_sites:4 ~strategy ~allocation:Config.Even () in
  let result = submit cluster 3 ~delta:(-80) in
  (match applied_kind result with
  | Update.With_transfer 3 -> ()
  | k -> Alcotest.failf "expected 3 rounds, got %a" Update.pp_kind k);
  Alcotest.(check int) "three correspondences" 3 (corr cluster);
  Alcotest.(check int) "system AV = 100 - 80" 20
    (Cluster.av_sum cluster ~item:"widget")

let test_exhaustion_rejected_and_av_conserved () =
  let cluster = make () in
  (* Total system AV is 100; ask for 150. *)
  let result = submit cluster 2 ~delta:(-150) in
  (match result.Update.outcome with
  | Update.Rejected Update.Av_exhausted -> ()
  | _ -> Alcotest.failf "expected Av_exhausted, got %a" Update.pp_result result);
  Alcotest.(check int) "AV fully conserved after give-up" 100
    (Cluster.av_sum cluster ~item:"widget");
  Alcotest.(check (option int)) "no data change" (Some 100)
    (Site.amount_of (Cluster.site cluster 2) ~item:"widget");
  (* The accumulated AV stays at the requesting site (paper: "all
     accumulated AV is stored in the local AV table"). *)
  Alcotest.(check bool) "requester accumulated peers' AV" true
    (Av_table.available (Site.av_table (Cluster.site cluster 2)) ~item:"widget" > 33);
  (* A follow-up affordable update succeeds locally thanks to it. *)
  let result2 = submit cluster 2 ~delta:(-40) in
  Alcotest.(check bool) "follow-up local" true (applied_kind result2 = Update.Local)

let test_unknown_item () =
  let cluster = make () in
  let result = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:"nope" ~delta:(-1) (fun r ->
      result := Some r);
  Cluster.run cluster;
  match !result with
  | Some { Update.outcome = Update.Rejected (Update.Unknown_item "nope"); _ } -> ()
  | _ -> Alcotest.fail "expected Unknown_item"

let test_concurrent_updates_same_item () =
  (* Two retailers each drain more than their own share concurrently; both
     must settle (applied or cleanly rejected) with AV conserved. *)
  let cluster = make () in
  let outcomes = ref [] in
  Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-40) (fun r ->
      outcomes := r :: !outcomes);
  Site.submit_update (Cluster.site cluster 2) ~item:"widget" ~delta:(-40) (fun r ->
      outcomes := r :: !outcomes);
  Cluster.run cluster;
  Alcotest.(check int) "both settled" 2 (List.length !outcomes);
  let applied_total =
    List.fold_left
      (fun acc r -> if Update.is_applied r then acc + 40 else acc)
      0 !outcomes
  in
  Alcotest.(check int) "AV conserved" (100 - applied_total)
    (Cluster.av_sum cluster ~item:"widget")

let test_sync_convergence () =
  let config =
    { (small_config ()) with Config.sync_interval = Some (Time.of_ms 50.) }
  in
  let cluster = Cluster.create config in
  ignore (submit cluster 0 ~delta:18);
  ignore (submit cluster 1 ~delta:(-9));
  ignore (submit cluster 2 ~delta:(-4));
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (list int)) "replicas converge to 105" [ 105; 105; 105 ]
    (Cluster.replica_amounts cluster ~item:"widget");
  (match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no pending deltas after flush" true
    (Array.for_all
       (fun s -> Site.pending_sync_deltas s = [])
       (Cluster.sites cluster))

let test_periodic_sync_runs_unaided () =
  let config =
    { (small_config ()) with Config.sync_interval = Some (Time.of_ms 20.) }
  in
  let cluster = Cluster.create config in
  let done_ = ref false in
  Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-5) (fun _ ->
      done_ := true);
  (* Run past a few sync ticks; the periodic timer reschedules forever so
     bound the run by time. *)
  Cluster.run ~until:(Time.of_ms 100.) cluster;
  Alcotest.(check bool) "update done" true !done_;
  Alcotest.(check (list int)) "periodic sync propagated" [ 95; 95; 95 ]
    (Cluster.replica_amounts cluster ~item:"widget")

let test_view_warms_up () =
  (* After one transfer, the requester knows the donor's remaining AV. *)
  let cluster = make () in
  ignore (submit cluster 1 ~delta:(-40));
  let view = Site.peer_view (Cluster.site cluster 1) in
  match Peer_view.volume_of view ~site:(Address.of_int 0) ~item:"widget" with
  | Some v -> Alcotest.(check bool) "donor volume observed" true (v >= 0)
  | None -> Alcotest.fail "no observation recorded"

(* A grant carries the donor's AV levels for every item, not only the one
   requested: the requester's selection cache learns the donor's other
   items from the one reply, on the demand path and on the prefetch path
   alike. No sync notices run, so the grant is the only source. *)
let grant_config ?prefetch_low () =
  {
    (small_config ()) with
    Config.products =
      [ Product.regular "widget" ~initial_amount:100; Product.regular "gadget" ~initial_amount:60 ];
    prefetch_low;
  }

let check_donor_levels cluster ~requester =
  let view = Site.peer_view (Cluster.site cluster requester) in
  let donors =
    List.filter
      (fun d -> Peer_view.volume_of view ~site:(Address.of_int d) ~item:"widget" <> None)
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "a donor replied" true (donors <> []);
  List.iter
    (fun d ->
      Alcotest.(check (option int))
        (Printf.sprintf "site%d's gadget level" d)
        (Some (Av_table.available (Site.av_table (Cluster.site cluster d)) ~item:"gadget"))
        (Peer_view.volume_of view ~site:(Address.of_int d) ~item:"gadget"))
    donors

let test_grant_levels_on_demand () =
  let cluster = Cluster.create (grant_config ()) in
  (match applied_kind (submit cluster 1 ~delta:(-50)) with
  | Update.With_transfer _ -> ()
  | _ -> Alcotest.fail "expected a transfer");
  check_donor_levels cluster ~requester:1

let test_grant_levels_on_prefetch () =
  let cluster = Cluster.create (grant_config ~prefetch_low:15 ()) in
  (* within site 1's share of 33: local, then below the watermark *)
  Alcotest.(check bool) "local" true (applied_kind (submit cluster 1 ~delta:(-20)) = Update.Local);
  let m = Site.metrics (Cluster.site cluster 1) in
  Alcotest.(check int) "no demand request" 0 m.Update.Metrics.av_requests_sent;
  Alcotest.(check int) "one prefetch" 1 m.Update.Metrics.prefetch_requests;
  check_donor_levels cluster ~requester:1

(* A grant acknowledges the piggyback its request carried. The prefetch
   leaves right after the local commit that drained the pool, so its
   reply leaves the donor fully caught up and the next flush notifies
   only the other peer. *)
let test_grant_acks_piggyback () =
  let config =
    {
      (small_config ()) with
      Config.prefetch_low = Some 15;
      sync_interval = Some (Time.of_ms 10_000.);
    }
  in
  let cluster = Cluster.create config in
  Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-20) (fun _ -> ());
  Cluster.run ~until:(Time.of_ms 50.) cluster;
  Alcotest.(check int) "one prefetch" 1
    (Site.metrics (Cluster.site cluster 1)).Update.Metrics.prefetch_requests;
  let sent () = Stats.total_sent (Cluster.net_stats cluster) in
  let before = sent () in
  Site.flush_sync (Cluster.site cluster 1);
  Alcotest.(check int) "one notice, to the peer the grant did not ack" 1 (sent () - before)

(* A grant also carries the donor's own unflushed counters: the
   requester's replica freshens from the reply alone, before any flush. *)
let test_grant_carries_donor_counters () =
  let config = { (small_config ()) with Config.sync_interval = Some (Time.of_ms 10_000.) } in
  let cluster = Cluster.create config in
  Site.submit_update (Cluster.site cluster 0) ~item:"widget" ~delta:30 (fun _ -> ());
  Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-40) (fun _ -> ());
  Cluster.run ~until:(Time.of_ms 50.) cluster;
  Alcotest.(check int) "one AV request" 1
    (Site.metrics (Cluster.site cluster 1)).Update.Metrics.av_requests_sent;
  Alcotest.(check (option int)) "requester saw the donor's +30" (Some 90)
    (Site.amount_of (Cluster.site cluster 1) ~item:"widget")

let test_metrics_accounting () =
  let cluster = make () in
  ignore (submit cluster 1 ~delta:(-10));
  ignore (submit cluster 1 ~delta:(-40));
  ignore (submit cluster 1 ~delta:(-200));
  let m = Site.metrics (Cluster.site cluster 1) in
  Alcotest.(check int) "submitted" 3 m.Update.Metrics.submitted;
  Alcotest.(check int) "local" 1 m.Update.Metrics.applied_local;
  Alcotest.(check int) "transfer" 1 m.Update.Metrics.applied_transfer;
  Alcotest.(check int) "rejected" 1 m.Update.Metrics.rejected;
  Alcotest.(check bool) "av requests counted" true (m.Update.Metrics.av_requests_sent >= 2)

let test_deterministic_replay () =
  let run () =
    let cluster = make () in
    let outcomes = ref [] in
    for i = 1 to 20 do
      let site = 1 + (i mod 2) in
      Site.submit_update (Cluster.site cluster site) ~item:"widget" ~delta:(-7) (fun r ->
          outcomes := Format.asprintf "%a" Update.pp_result r :: !outcomes)
    done;
    Cluster.run cluster;
    (!outcomes, Cluster.total_correspondences cluster)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical outcome traces" true (a = b)


let test_sync_gossips_av_info () =
  (* Sync notices piggyback the sender's available AV; peers' selection
     caches warm up without any dedicated messages. *)
  let config =
    { (small_config ()) with Config.sync_interval = Some (Time.of_ms 10.) }
  in
  let cluster = Cluster.create config in
  ignore (submit cluster 1 ~delta:(-5));
  Cluster.flush_all_syncs cluster;
  let expected = Av_table.available (Site.av_table (Cluster.site cluster 1)) ~item:"widget" in
  List.iter
    (fun observer ->
      match
        Peer_view.volume_of
          (Site.peer_view (Cluster.site cluster observer))
          ~site:(Address.of_int 1) ~item:"widget"
      with
      | Some v -> Alcotest.(check int) "gossiped AV" expected v
      | None -> Alcotest.failf "site%d never heard about site1's AV" observer)
    [ 0; 2 ]

let test_sync_fanout_rotation_converges () =
  (* With [sync_fanout = Some 1] each periodic flush notifies a single
     peer, rotating round-robin; the cumulative counters mean whichever
     flush reaches a peer carries everything it missed, so the replicas
     still converge from the timer alone — just over more intervals. *)
  let config =
    {
      (small_config ()) with
      Config.sync_interval = Some (Time.of_ms 20.);
      sync_fanout = Some 1;
    }
  in
  let cluster = Cluster.create config in
  ignore (submit cluster 0 ~delta:18);
  ignore (submit cluster 1 ~delta:(-9));
  Cluster.run ~until:(Time.of_ms 400.) cluster;
  Alcotest.(check (list int)) "rotation alone converges" [ 109; 109; 109 ]
    (Cluster.replica_amounts cluster ~item:"widget");
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_sync_fanout_sends_fewer_messages () =
  (* Sustained traffic, broadcast vs rotation: with a fresh delta every
     interval, broadcast re-notifies every peer per flush while fanout
     notifies one, so rotation must strictly reduce the message count —
     and still agree on the final replicas. A single burst would not show
     the difference (its rotation eventually covers everyone anyway). *)
  let run fanout =
    let config =
      {
        (small_config ()) with
        Config.sync_interval = Some (Time.of_ms 20.);
        sync_fanout = fanout;
      }
    in
    let cluster = Cluster.create config in
    for round = 0 to 9 do
      Site.submit_update (Cluster.site cluster 0) ~item:"widget" ~delta:(-1) (fun _ -> ());
      Cluster.run ~until:(Time.of_ms (20. *. float_of_int (round + 1))) cluster
    done;
    Cluster.run cluster;
    ( Avdb_net.Stats.total_sent (Cluster.net_stats cluster),
      Cluster.replica_amounts cluster ~item:"widget" )
  in
  let broadcast_sent, broadcast_replicas = run None in
  let fanout_sent, fanout_replicas = run (Some 1) in
  Alcotest.(check (list int)) "same converged replicas" broadcast_replicas fanout_replicas;
  Alcotest.(check bool)
    (Printf.sprintf "fewer messages (%d < %d)" fanout_sent broadcast_sent)
    true (fanout_sent < broadcast_sent)

let test_sync_acks_suppress_resend () =
  (* Counters a peer has acknowledged — via the one ack number riding its
     own notices — are omitted from later flushes; once everyone is caught
     up a flush sends nothing at all. *)
  let config =
    { (small_config ()) with Config.sync_interval = Some (Time.of_ms 50.) }
  in
  let cluster = Cluster.create config in
  (* Every site makes a change so every site has notices of its own for
     its ack to ride on. *)
  ignore (submit cluster 0 ~delta:18);
  ignore (submit cluster 1 ~delta:(-9));
  ignore (submit cluster 2 ~delta:(-4));
  (* First flush round delivers the counters; the second's notices carry
     back to each origin the highest version its receiver applied from
     it. *)
  Cluster.flush_all_syncs cluster;
  Cluster.flush_all_syncs cluster;
  let sent_before = Avdb_net.Stats.total_sent (Cluster.net_stats cluster) in
  (* Nothing new happened: a debounced (non-force) flush must send zero
     notices because every counter is acknowledged everywhere. *)
  Array.iter (fun s -> Site.flush_sync s) (Cluster.sites cluster);
  Cluster.run cluster;
  Alcotest.(check int) "acked counters not resent" sent_before
    (Avdb_net.Stats.total_sent (Cluster.net_stats cluster))

let test_sync_notice_size_flat_in_origins () =
  (* A notice acknowledges only its receiver's own counters, so under
     full replication its size does not grow with the number of origins
     its sender has applied counters from. Fanout 1 makes site 1's first
     unforced flush notify exactly one peer: site 0, first in its
     rotation. *)
  let notice_bytes origins =
    let cluster =
      Cluster.create { (small_config ~n_sites:9 ()) with Config.sync_fanout = Some 1 }
    in
    List.iter (fun site -> ignore (submit cluster site ~delta:1)) origins;
    Cluster.flush_all_syncs cluster;
    ignore (submit cluster 1 ~delta:1);
    let stats = Avdb_net.Stats.site (Cluster.net_stats cluster) (Address.of_int 1) in
    let sent = stats.Avdb_net.Stats.sent and bytes = stats.Avdb_net.Stats.bytes_sent in
    Site.flush_sync (Cluster.site cluster 1);
    Cluster.run cluster;
    Alcotest.(check int) "one notice" 1 (stats.Avdb_net.Stats.sent - sent);
    stats.Avdb_net.Stats.bytes_sent - bytes
  in
  let one = notice_bytes [ 0 ] and eight = notice_bytes [ 0; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check bool)
    (Printf.sprintf "notice after 8 origins (%d B) <= after 1 (%d B)" eight one)
    true (eight <= one)

let test_av_request_piggybacks_sync () =
  (* Pending sync counters ride AV requests: the donor's replica freshens
     from the request itself, before any periodic flush fires. *)
  let config =
    { (small_config ()) with Config.sync_interval = Some (Time.of_ms 10_000.) }
  in
  let cluster = Cluster.create config in
  (* Local update queues a delta at site 1 (within its AV share of 33).
     Bounded runs keep us well inside the 10 s sync interval, so the
     periodic flush never fires during the test. *)
  Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-20) (fun _ -> ());
  Cluster.run ~until:(Time.of_ms 50.) cluster;
  Alcotest.(check (option int)) "donor replica stale before request" (Some 100)
    (Site.amount_of (Cluster.site cluster 0) ~item:"widget");
  (* A shortage then forces an AV request carrying that queued delta: the
     donor's replica freshens from the request alone. *)
  let result = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-30) (fun r ->
      result := Some r);
  Cluster.run ~until:(Time.of_ms 100.) cluster;
  Alcotest.(check bool) "transfer applied" true (Update.is_applied (Option.get !result));
  Alcotest.(check (option int)) "donor replica freshened by piggyback" (Some 80)
    (Site.amount_of (Cluster.site cluster 0) ~item:"widget")

let test_sync_reorder_duplicate_safety () =
  (* Heavy duplication + reordering on the sync path: the per-(origin,
     item) version check must make stale or replayed counters harmless, so
     replicas converge to the exact total. *)
  let config =
    {
      (small_config ()) with
      Config.sync_interval = Some (Time.of_ms 20.);
      duplicate_probability = 0.4;
      reorder_probability = 0.5;
    }
  in
  let cluster = Cluster.create config in
  let applied = ref 0 in
  for i = 1 to 30 do
    let delta = if i mod 4 = 0 then 3 else -2 in
    Site.submit_update (Cluster.site cluster (i mod 3)) ~item:"widget" ~delta (fun r ->
        if Update.is_applied r then applied := !applied + delta)
  done;
  Cluster.run cluster;
  Cluster.set_duplicate_probability cluster 0.;
  Cluster.set_reorder_probability cluster 0.;
  Cluster.flush_all_syncs cluster;
  Alcotest.(check bool) "duplicates actually injected" true
    (Avdb_net.Stats.total_duplicated (Cluster.net_stats cluster) > 0);
  let expected = 100 + !applied in
  Alcotest.(check (list int)) "exact convergence despite chaos"
    [ expected; expected; expected ]
    (Cluster.replica_amounts cluster ~item:"widget");
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let qcheck_tests =
  let ops_arb = Gen.site_ops ~n_sites:3 () in
  let open QCheck in
  [
    (* Global safety under random SCM-ish traffic: AV conservation and
       replica convergence after a full sync flush. *)
    Test.make ~name:"random traffic keeps invariants" ~count:30 (pair small_int ops_arb)
      (fun (seed, ops) ->
        let config = { (small_config ()) with Config.seed = 1 + (seed mod 1000) } in
        let cluster = Cluster.create config in
        List.iter
          (fun (site, delta) ->
            if delta <> 0 then
              Site.submit_update (Cluster.site cluster site) ~item:"widget" ~delta
                (fun _ -> ()))
          ops;
        Cluster.run cluster;
        Cluster.flush_all_syncs cluster;
        match Cluster.check_invariants cluster with Ok () -> true | Error _ -> false);
  ]

let suites =
  [
    ( "core.delay_update",
      [
        Alcotest.test_case "positive delta is local" `Quick test_positive_delta_is_local;
        Alcotest.test_case "negative within AV is local" `Quick test_negative_within_av_is_local;
        Alcotest.test_case "fig.1 transfer" `Quick test_fig1_transfer;
        Alcotest.test_case "multi-round transfer" `Quick test_multi_round_transfer;
        Alcotest.test_case "exhaustion rejected, AV conserved" `Quick
          test_exhaustion_rejected_and_av_conserved;
        Alcotest.test_case "unknown item" `Quick test_unknown_item;
        Alcotest.test_case "concurrent updates same item" `Quick test_concurrent_updates_same_item;
        Alcotest.test_case "sync convergence" `Quick test_sync_convergence;
        Alcotest.test_case "periodic sync" `Quick test_periodic_sync_runs_unaided;
        Alcotest.test_case "peer view warms up" `Quick test_view_warms_up;
        Alcotest.test_case "sync gossips AV info" `Quick test_sync_gossips_av_info;
        Alcotest.test_case "grant carries donor levels (demand)" `Quick
          test_grant_levels_on_demand;
        Alcotest.test_case "grant carries donor levels (prefetch)" `Quick
          test_grant_levels_on_prefetch;
        Alcotest.test_case "grant acks the request's piggyback" `Quick test_grant_acks_piggyback;
        Alcotest.test_case "grant carries donor counters" `Quick
          test_grant_carries_donor_counters;
        Alcotest.test_case "sync fanout rotation converges" `Quick
          test_sync_fanout_rotation_converges;
        Alcotest.test_case "sync fanout sends fewer messages" `Quick
          test_sync_fanout_sends_fewer_messages;
        Alcotest.test_case "sync acks suppress resend" `Quick test_sync_acks_suppress_resend;
        Alcotest.test_case "sync notice size flat in origins" `Quick
          test_sync_notice_size_flat_in_origins;
        Alcotest.test_case "AV request piggybacks sync" `Quick test_av_request_piggybacks_sync;
        Alcotest.test_case "sync reorder/duplicate safety" `Quick
          test_sync_reorder_duplicate_safety;
        Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
        Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
