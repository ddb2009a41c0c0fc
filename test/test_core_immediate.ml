open Avdb_core
open Avdb_txn

(* One non-regular item: all updates to it use Immediate Update. *)
let make ?(n_sites = 3) () =
  Cluster.create
    {
      Config.default with
      Config.n_sites;
      products =
        [ Product.non_regular "custom" ~initial_amount:50; Product.regular "widget" ~initial_amount:90 ];
      seed = 31;
    }

let submit cluster site_index ?(item = "custom") ~delta () =
  let result = ref None in
  Site.submit_update (Cluster.site cluster site_index) ~item ~delta (fun r ->
      result := Some r);
  Cluster.run cluster;
  match !result with Some r -> r | None -> Alcotest.fail "update never completed"

let test_commit_updates_all_replicas () =
  let cluster = make () in
  let result = submit cluster 1 ~delta:(-10) () in
  (match result.Update.outcome with
  | Update.Applied Update.Immediate -> ()
  | _ -> Alcotest.failf "expected immediate commit, got %a" Update.pp_result result);
  (* No sync flush: Immediate Update is synchronous at every site. *)
  Alcotest.(check (list int)) "all replicas see it now" [ 40; 40; 40 ]
    (Cluster.replica_amounts cluster ~item:"custom")

let test_correspondence_cost () =
  (* Coordinator site 1 runs prepare + decision rounds with each of the
     other 2 sites: 4 correspondences. *)
  let cluster = make () in
  ignore (submit cluster 1 ~delta:(-5) ());
  Alcotest.(check int) "2 rounds x 2 peers" 4 (Cluster.total_correspondences cluster);
  Alcotest.(check (list (pair int int))) "all charged to the coordinator"
    [ (0, 0); (1, 4); (2, 0) ]
    (Cluster.per_site_correspondences cluster)

let test_insufficient_stock_aborts () =
  let cluster = make () in
  let result = submit cluster 2 ~delta:(-60) () in
  (match result.Update.outcome with
  | Update.Rejected Update.Txn_aborted -> ()
  | _ -> Alcotest.failf "expected abort, got %a" Update.pp_result result);
  Alcotest.(check (list int)) "no replica changed" [ 50; 50; 50 ]
    (Cluster.replica_amounts cluster ~item:"custom");
  (* Locks must be free: a follow-up update commits. *)
  let result2 = submit cluster 2 ~delta:(-50) () in
  Alcotest.(check bool) "follow-up commits" true (Update.is_applied result2);
  Alcotest.(check (list int)) "applied everywhere" [ 0; 0; 0 ]
    (Cluster.replica_amounts cluster ~item:"custom")

let test_coordinator_at_base () =
  let cluster = make () in
  let result = submit cluster 0 ~delta:7 () in
  Alcotest.(check bool) "commits" true (Update.is_applied result);
  Alcotest.(check (list int)) "all replicas" [ 57; 57; 57 ]
    (Cluster.replica_amounts cluster ~item:"custom")

let test_sequential_updates_from_different_sites () =
  let cluster = make () in
  ignore (submit cluster 0 ~delta:(-5) ());
  ignore (submit cluster 1 ~delta:(-5) ());
  ignore (submit cluster 2 ~delta:(-5) ());
  Alcotest.(check (list int)) "all applied in order" [ 35; 35; 35 ]
    (Cluster.replica_amounts cluster ~item:"custom")

let test_concurrent_conflicting_commits_or_aborts_cleanly () =
  let cluster = make () in
  let outcomes = ref [] in
  Site.submit_update (Cluster.site cluster 1) ~item:"custom" ~delta:(-30) (fun r ->
      outcomes := r :: !outcomes);
  Site.submit_update (Cluster.site cluster 2) ~item:"custom" ~delta:(-30) (fun r ->
      outcomes := r :: !outcomes);
  Cluster.run cluster;
  Alcotest.(check int) "both settled" 2 (List.length !outcomes);
  let applied = List.filter Update.is_applied !outcomes in
  let expected = 50 - (30 * List.length applied) in
  Alcotest.(check (list int)) "replicas consistent with applied count"
    [ expected; expected; expected ]
    (Cluster.replica_amounts cluster ~item:"custom");
  Alcotest.(check bool) "stock never oversold" true (expected >= -10)

let test_finished_txn_leaves_no_timer () =
  (* Once the decision is acknowledged nothing of the transaction stays
     scheduled: the coordinator cancels its ack deadline at cleanup and
     each participant its termination check when it finalises, so the run
     drains before either timer would have fired. *)
  let cluster = make () in
  let result = submit cluster 1 ~delta:(-10) () in
  Alcotest.(check bool) "commits" true (Update.is_applied result);
  Alcotest.(check int) "nothing scheduled" 0 (Avdb_sim.Engine.pending (Cluster.engine cluster));
  let drained_at = Cluster.now cluster in
  if not Avdb_sim.Time.(drained_at < Config.default.Config.ack_timeout) then
    Alcotest.failf "the run drained at %a, at or past the ack deadline" Avdb_sim.Time.pp
      drained_at

let test_participant_down_aborts () =
  let cluster = make () in
  Site.crash (Cluster.site cluster 2);
  let result = submit cluster 1 ~delta:(-10) () in
  (match result.Update.outcome with
  | Update.Rejected Update.Txn_aborted -> ()
  | _ -> Alcotest.failf "expected abort with down participant, got %a" Update.pp_result result);
  Alcotest.(check (option int)) "base unchanged" (Some 50)
    (Site.amount_of (Cluster.site cluster 0) ~item:"custom");
  (* After recovery the same update commits. *)
  Site.recover (Cluster.site cluster 2);
  let result2 = submit cluster 1 ~delta:(-10) () in
  Alcotest.(check bool) "commits after recovery" true (Update.is_applied result2);
  Alcotest.(check (list int)) "all replicas" [ 40; 40; 40 ]
    (Cluster.replica_amounts cluster ~item:"custom")

let test_txn_log_records () =
  let cluster = make () in
  ignore (submit cluster 1 ~delta:(-10) ());
  ignore (submit cluster 1 ~delta:(-100) ());
  let log = Site.txn_log (Cluster.site cluster 1) in
  Alcotest.(check int) "one committed" 1 (Txn_log.committed log);
  Alcotest.(check int) "one aborted" 1 (Txn_log.aborted log);
  Alcotest.(check int) "none in flight" 0 (Txn_log.in_flight log);
  (* Participants logged the committed txn too. *)
  let base_log = Site.txn_log (Cluster.site cluster 0) in
  Alcotest.(check int) "base saw the commit" 1 (Txn_log.committed base_log)

let test_regular_item_still_uses_delay () =
  (* The checking function must route by AV presence, not by accident. *)
  let cluster = make () in
  let result = submit cluster 1 ~item:"widget" ~delta:(-10) () in
  match result.Update.outcome with
  | Update.Applied Update.Local | Update.Applied (Update.With_transfer _) -> ()
  | _ -> Alcotest.failf "regular item took wrong path: %a" Update.pp_result result

let test_mixed_traffic () =
  (* Interleave delay and immediate updates; both families settle and the
     immediate item stays globally consistent. *)
  let cluster = make () in
  let settled = ref 0 in
  for i = 1 to 30 do
    let site = i mod 3 in
    let item = if i mod 2 = 0 then "custom" else "widget" in
    Site.submit_update (Cluster.site cluster site) ~item ~delta:(-1) (fun _ -> incr settled)
  done;
  Cluster.run cluster;
  Alcotest.(check int) "all settled" 30 !settled;
  let amounts = Cluster.replica_amounts cluster ~item:"custom" in
  match amounts with
  | first :: rest -> Alcotest.(check bool) "custom replicas agree" true (List.for_all (( = ) first) rest)
  | [] -> Alcotest.fail "no replicas"


let test_decision_loss_recovered_by_termination_protocol () =
  (* Partition coordinator <-> participant between the vote and the
     decision: the Decision message is lost, the participant is left
     prepared and holding the lock. Its termination protocol must fetch
     the outcome from the coordinator once the partition heals. *)
  let cluster = make () in
  let engine = Cluster.engine cluster in
  ignore
    (Avdb_sim.Engine.schedule engine ~delay:(Avdb_sim.Time.of_us 2_500) (fun () ->
         Cluster.partition cluster 1 2));
  ignore
    (Avdb_sim.Engine.schedule engine ~delay:(Avdb_sim.Time.of_ms 100.) (fun () ->
         Cluster.heal cluster 1 2));
  let result = submit cluster 1 ~delta:(-5) () in
  Alcotest.(check bool) "coordinator committed" true (Update.is_applied result);
  (* After quiescence the cut-off participant caught up via the protocol. *)
  Alcotest.(check (list int)) "all replicas converged" [ 45; 45; 45 ]
    (Cluster.replica_amounts cluster ~item:"custom");
  (* The lock at site 2 was released: a new update commits everywhere. *)
  let result2 = submit cluster 2 ~delta:(-5) () in
  Alcotest.(check bool) "follow-up commits" true (Update.is_applied result2);
  Alcotest.(check (list int)) "applied everywhere" [ 40; 40; 40 ]
    (Cluster.replica_amounts cluster ~item:"custom")

let test_termination_asks_live_coordinator () =
  (* The participant's decision timer fires while the coordinator, which
     never got its ack, is still collecting acks: the live machine's
     decision answers the very first termination query. *)
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.n_sites = 3;
        products = [ Product.non_regular "custom" ~initial_amount:50 ];
        decision_timeout = Avdb_sim.Time.of_ms 50.;
        seed = 31;
      }
  in
  let engine = Cluster.engine cluster in
  ignore
    (Avdb_sim.Engine.schedule engine ~delay:(Avdb_sim.Time.of_us 2_500) (fun () ->
         Cluster.partition cluster 1 2));
  ignore
    (Avdb_sim.Engine.schedule engine ~delay:(Avdb_sim.Time.of_ms 10.) (fun () ->
         Cluster.heal cluster 1 2));
  let result = submit cluster 1 ~delta:(-5) () in
  Alcotest.(check bool) "coordinator committed" true (Update.is_applied result);
  Alcotest.(check (list int)) "all replicas converged" [ 45; 45; 45 ]
    (Cluster.replica_amounts cluster ~item:"custom");
  Alcotest.(check int) "one query settled it" 1
    (Site.metrics (Cluster.site cluster 2)).Update.Metrics.termination_queries

let test_coordinator_crash_resolved_after_recovery () =
  (* The coordinator crashes right after sending prepares, before any
     vote is in. Its recovery finds the Start record without an outcome
     and presumes Abort; prepared participants stay blocked until it comes
     back, then learn the abort through the termination protocol. *)
  let cluster = make () in
  let engine = Cluster.engine cluster in
  ignore
    (Avdb_sim.Engine.schedule engine ~delay:(Avdb_sim.Time.of_us 1_500) (fun () ->
         Site.crash (Cluster.site cluster 1)));
  ignore
    (Avdb_sim.Engine.schedule engine ~delay:(Avdb_sim.Time.of_sec 1.) (fun () ->
         Site.recover (Cluster.site cluster 1)));
  let result = submit cluster 1 ~delta:(-5) () in
  Alcotest.(check bool) "aborted" true (not (Update.is_applied result));
  Alcotest.(check (list int)) "no replica changed" [ 50; 50; 50 ]
    (Cluster.replica_amounts cluster ~item:"custom");
  (* Every site is unblocked afterwards. *)
  let result2 = submit cluster 2 ~delta:(-10) () in
  Alcotest.(check bool) "follow-up commits" true (Update.is_applied result2);
  Alcotest.(check (list int)) "applied everywhere" [ 40; 40; 40 ]
    (Cluster.replica_amounts cluster ~item:"custom")

let test_immediate_updates_atomic_under_loss () =
  (* 20% message loss: every immediate update still settles and the
     replicas never diverge (retries + termination protocol). *)
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.n_sites = 3;
        products = [ Product.non_regular "custom" ~initial_amount:1000 ];
        drop_probability = 0.2;
        rpc_timeout = Avdb_sim.Time.of_ms 30.;
        seed = 61;
      }
  in
  let settled = ref 0 in
  for i = 0 to 39 do
    Site.submit_update (Cluster.site cluster (i mod 3)) ~item:"custom" ~delta:(-1) (fun _ ->
        incr settled)
  done;
  Cluster.run cluster;
  Alcotest.(check int) "all settled" 40 !settled;
  (match Cluster.replica_amounts cluster ~item:"custom" with
  | first :: rest ->
      Alcotest.(check bool) "replicas agree under loss" true (List.for_all (( = ) first) rest)
  | [] -> Alcotest.fail "no replicas");
  (* And the system is still live. *)
  let result = submit cluster 1 ~delta:(-1) () in
  Alcotest.(check bool) "still live" true (Update.is_applied result)

let suites =
  [
    ( "core.immediate_update",
      [
        Alcotest.test_case "commit updates all replicas" `Quick test_commit_updates_all_replicas;
        Alcotest.test_case "correspondence cost" `Quick test_correspondence_cost;
        Alcotest.test_case "insufficient stock aborts" `Quick test_insufficient_stock_aborts;
        Alcotest.test_case "coordinator at base" `Quick test_coordinator_at_base;
        Alcotest.test_case "sequential from all sites" `Quick test_sequential_updates_from_different_sites;
        Alcotest.test_case "concurrent conflicts settle" `Quick
          test_concurrent_conflicting_commits_or_aborts_cleanly;
        Alcotest.test_case "a finished transaction leaves no timer behind" `Quick
          test_finished_txn_leaves_no_timer;
        Alcotest.test_case "participant down aborts" `Quick test_participant_down_aborts;
        Alcotest.test_case "txn log records" `Quick test_txn_log_records;
        Alcotest.test_case "regular item still delay" `Quick test_regular_item_still_uses_delay;
        Alcotest.test_case "mixed traffic" `Quick test_mixed_traffic;
        Alcotest.test_case "decision loss -> termination protocol" `Quick
          test_decision_loss_recovered_by_termination_protocol;
        Alcotest.test_case "termination asks live coordinator" `Quick
          test_termination_asks_live_coordinator;
        Alcotest.test_case "coordinator crash resolved" `Quick
          test_coordinator_crash_resolved_after_recovery;
        Alcotest.test_case "atomic under loss" `Quick test_immediate_updates_atomic_under_loss;
      ] );
  ]
