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
  if not Avdb_sim.Time.(drained_at < Protocol.ack_timeout) then
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

(* Hand-built sites on one [Rpc] (see {!Test_core_delay.hand_built}):
   site [bare] is a bare node that answers no request, the others are
   real sites, and every site stocks the one non-regular item "custom".
   [ask ~src ~dst ~at request] sends [request] at [at] and returns a
   reader of the answer, "none" before one arrives. *)
let hand_built_immediate ~n_sites ~bare =
  let config =
    {
      Config.default with
      Config.n_sites;
      products = [ Product.non_regular "custom" ~initial_amount:50 ];
      tracing = false;
      seed = 31;
    }
  in
  let engine, rpc, shared = Test_core_delay.hand_built config in
  let requests = ref [] in
  Avdb_net.Rpc.serve rpc (Avdb_net.Address.of_int bare)
    ~handler:(fun ~src:_ ~span:_ request ~reply:_ -> requests := request :: !requests)
    ();
  let sites =
    Array.init n_sites (fun i ->
        if i = bare then None
        else Some (Site.create shared ~addr:(Avdb_net.Address.of_int i) ~av_init:[]))
  in
  let ask ~src ~dst ~at request =
    let answer = ref None in
    ignore
      (Avdb_sim.Engine.schedule engine ~delay:at (fun () ->
           Avdb_net.Rpc.call rpc ~src:(Avdb_net.Address.of_int src)
             ~dst:(Avdb_net.Address.of_int dst) request (fun r -> answer := Some r)));
    fun () ->
      match !answer with
      | Some (Ok r) -> Format.asprintf "%a" Protocol.pp_response r
      | Some (Error _) -> "timeout"
      | None -> "none"
  in
  (engine, (fun i -> Option.get sites.(i)), requests, ask)

(* The coordinator answers a termination query from its live machine
   while the coordination is open. Site 1 coordinates an update to site
   0, a real participant, and site 2, which takes the prepare and never
   votes: the vote round stays open until site 2's prepare times out at
   [Protocol.prepare_timeout] and aborts, and the ack round then waits
   [Protocol.ack_timeout] for site 2's ack. A query during the vote round
   reads [Still_pending]; read from the protocol log, it would presume
   abort. A query during the ack round reads the machine's decision. *)
let test_termination_asks_live_coordinator () =
  let engine, site, requests, ask = hand_built_immediate ~n_sites:3 ~bare:2 in
  let result = ref None in
  Site.submit_update (site 1) ~item:"custom" ~delta:(-5) (fun r -> result := Some r);
  let txid = 1_000_000 (* site 1's first transaction *) in
  let half t = Avdb_sim.Time.of_us (Avdb_sim.Time.to_us t / 2) in
  let query = Protocol.Query_decision { txid } in
  let in_vote_round = ask ~src:2 ~dst:1 ~at:(half Protocol.prepare_timeout) query in
  let in_ack_round =
    ask ~src:2 ~dst:1
      ~at:(Avdb_sim.Time.add Protocol.prepare_timeout (half Protocol.ack_timeout))
      query
  in
  ignore (Avdb_sim.Engine.run engine);
  (match !requests with
  | [ Protocol.Decision { txid = t; decision = Two_phase.Abort };
      Protocol.Prepare { txid = t'; _ } ] when t = txid && t' = txid -> ()
  | _ -> Alcotest.fail "site 2 did not get exactly the prepare and the abort");
  Alcotest.(check string) "vote round: still pending"
    (Format.asprintf "%a" Protocol.pp_response
       (Protocol.Decision_status { txid; status = Protocol.Still_pending }))
    (in_vote_round ());
  Alcotest.(check string) "ack round: the machine's abort"
    (Format.asprintf "%a" Protocol.pp_response
       (Protocol.Decision_status { txid; status = Protocol.Decided Two_phase.Abort }))
    (in_ack_round ());
  (match !result with
  | Some { Update.outcome = Update.Rejected Update.Txn_aborted; _ } -> ()
  | _ -> Alcotest.fail "the update did not abort");
  Alcotest.(check (option int)) "the participant's row is unchanged" (Some 50)
    (Site.amount_of (site 0) ~item:"custom")

(* A decision for a transaction the participant never prepared, or has
   already finalised, changes nothing there and is still acknowledged, so
   the coordinator's ack round can close. Site 1 is a bare node that
   plays the coordinator. *)
let test_stray_decision_acked () =
  let engine, site, _, ask = hand_built_immediate ~n_sites:2 ~bare:1 in
  let participant = site 0 in
  let log = Site.txn_log participant in
  let wal () = Avdb_store.Wal.length (Avdb_store.Database.wal (Site.database participant)) in
  let decide ~txid decision =
    let answer = ask ~src:1 ~dst:0 ~at:Avdb_sim.Time.zero (Protocol.Decision { txid; decision }) in
    ignore (Avdb_sim.Engine.run engine);
    Alcotest.(check string) "acknowledged"
      (Format.asprintf "%a" Protocol.pp_response (Protocol.Decision_ack { txid }))
      (answer ())
  in
  let wal0 = wal () in
  decide ~txid:42 Two_phase.Commit;
  Alcotest.(check (option int)) "never prepared: nothing applied" (Some 50)
    (Site.amount_of participant ~item:"custom");
  Alcotest.(check bool) "never prepared: nothing logged" true (Txn_log.find log ~txid:42 = None);
  Alcotest.(check int) "never prepared: nothing in the WAL" wal0 (wal ());
  let vote =
    ask ~src:1 ~dst:0 ~at:Avdb_sim.Time.zero
      (Protocol.Prepare
         {
           txid = 7;
           coordinator = Avdb_net.Address.of_int 1;
           cohort = [ Avdb_net.Address.of_int 0 ];
           item = "custom";
           delta = -5;
         })
  in
  ignore (Avdb_sim.Engine.run engine);
  Alcotest.(check string) "votes ready"
    (Format.asprintf "%a" Protocol.pp_response
       (Protocol.Vote { txid = 7; vote = Two_phase.Ready }))
    (vote ());
  decide ~txid:7 Two_phase.Commit;
  Alcotest.(check (option int)) "the commit applies" (Some 45)
    (Site.amount_of participant ~item:"custom");
  let wal1 = wal () in
  List.iter
    (fun decision ->
      decide ~txid:7 decision;
      Alcotest.(check (option int)) "finalised: nothing applied again" (Some 45)
        (Site.amount_of participant ~item:"custom");
      Alcotest.(check int) "finalised: nothing in the WAL" wal1 (wal ());
      match Txn_log.find log ~txid:7 with
      | Some { Txn_log.outcome = Some Two_phase.Commit; _ } -> ()
      | _ -> Alcotest.fail "the logged outcome changed")
    [ Two_phase.Abort; Two_phase.Commit ]

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

(* A committed Immediate update keeps its storage transactions, its
   protocol-log records and its messages, and allocates little besides.
   3 sites, one non-regular item of deep stock, tracing off, coordinators
   in rotation, each update run to completion: 1,004.8 minor words. By
   layer, each measured on its own: four RPC round trips (a prepare and a
   decision to each of two participants) at 84 words, 336; the protocol
   log's seven records over three sites with their index entries, 97;
   three storage transactions, 78; the coordinator machine, 45; three lock
   grants and releases at 15, 45. The rest, about 404, is Site_immediate's
   records and closures, one prepare and one decision body, and the
   engine run. *)
let test_committed_update_allocates_little () =
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.n_sites = 3;
        products = [ Product.non_regular "custom" ~initial_amount:1_000_000_000 ];
        tracing = false;
        seed = 31;
      }
  in
  let applied = ref 0 in
  let callback r = if Update.is_applied r then incr applied in
  let update k =
    Site.submit_update (Cluster.site cluster (k mod 3)) ~item:"custom" ~delta:1 callback;
    Cluster.run cluster
  in
  let warm_up = 200 and n = 2_000 in
  for k = 0 to warm_up - 1 do
    update k
  done;
  let w0 = Gc.minor_words () in
  for k = warm_up to warm_up + n - 1 do
    update k
  done;
  let per_update = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every update committed" (warm_up + n) !applied;
  if per_update > 1_040. then
    Alcotest.failf "a committed Immediate update allocates %.1f minor words (at most 1,040)"
      per_update

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
        Alcotest.test_case "a stray decision changes nothing and is acked" `Quick
          test_stray_decision_acked;
        Alcotest.test_case "coordinator crash resolved" `Quick
          test_coordinator_crash_resolved_after_recovery;
        Alcotest.test_case "atomic under loss" `Quick test_immediate_updates_atomic_under_loss;
        Alcotest.test_case "a committed update allocates little" `Quick
          test_committed_update_allocates_little;
      ] );
  ]
