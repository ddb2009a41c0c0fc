(* Scripted fault scenarios across the whole stack: crash/recover with
   incarnation fencing, partitions, message loss, duplication and
   reordering — always ending with the AV-conservation invariant and
   replica convergence at quiescence. *)

open Avdb_sim
open Avdb_core
open Avdb_av
open Avdb_workload

let config ?(n_sites = 3) ?(allocation = Config.Even) ?(initial = 100) ?(seed = 11)
    ?(drop = 0.) ?sync_ms ?(retry = Avdb_net.Rpc.no_retry) () =
  {
    Config.default with
    Config.n_sites;
    allocation;
    products = Product.catalogue ~n_regular:4 ~n_non_regular:0 ~initial_amount:initial;
    rpc_timeout = Time.of_ms 20.;
    rpc_retry = retry;
    drop_probability = drop;
    sync_interval = Option.map Time.of_ms sync_ms;
    seed;
  }

let retry_policy =
  {
    Avdb_net.Rpc.max_attempts = 5;
    base_backoff = Time.of_ms 5.;
    backoff_multiplier = 2.;
    jitter = 0.5;
  }

let flush_until_converged ?(item = "product0") cluster =
  let converged () =
    match Cluster.replica_amounts cluster ~item with
    | first :: rest -> List.for_all (( = ) first) rest
    | [] -> false
  in
  let attempts = ref 0 in
  while (not (converged ())) && !attempts < 25 do
    incr attempts;
    Cluster.flush_all_syncs cluster
  done;
  Alcotest.(check bool) "replicas converge at quiescence" true (converged ())

let check_conserved ?(item = "product0") cluster =
  match Cluster.av_conservation cluster ~item with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- crash / recover with incarnation fencing --- *)

let test_crash_fails_inflight_exactly_once () =
  (* A transfer is stuck behind a partition when the site crashes: the
     crash must fail the pending submission immediately (the colocated
     client sees its server die), and the old incarnation's timeout
     continuation — still in the event queue — must not fire it again. *)
  let cluster = Cluster.create (config ~allocation:Config.All_at_base ()) in
  Cluster.partition cluster 1 0;
  Cluster.partition cluster 1 2;
  let fired = ref 0 and result = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:"product0" ~delta:(-10) (fun r ->
      incr fired;
      result := Some r);
  Alcotest.(check int) "pending on the wire" 0 !fired;
  Site.crash (Cluster.site cluster 1);
  (match !result with
  | Some { Update.outcome = Update.Rejected Update.Unreachable; _ } -> ()
  | _ -> Alcotest.fail "crash did not fail the in-flight submission");
  Cluster.run cluster;
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Cluster.heal cluster 1 0;
  Cluster.heal cluster 1 2;
  Site.recover (Cluster.site cluster 1);
  (* The reincarnated site works: it can still borrow from the base. *)
  let after = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:"product0" ~delta:(-10) (fun r ->
      after := Some r);
  Cluster.run cluster;
  Alcotest.(check bool) "recovered site borrows normally" true
    (match !after with Some r -> Update.is_applied r | None -> false);
  check_conserved cluster

(* An operation that completes inside its own submission call is never
   registered as in flight, and one its callback submits is registered
   only while it waits. [submit site delta k] submits one operation on
   product0 from site 1: an update, or a batch that also takes one unit of
   product1. Even allocation leaves site 1 33 units of each item. *)
let submit_one site delta k = Site.submit_update site ~item:"product0" ~delta k
let submit_batch site delta k = Site.submit_batch site ~deltas:[ ("product0", delta); ("product1", -1) ] k

let crash_after_local_commit submit () =
  let cluster = Cluster.create (config ()) in
  let site1 = Cluster.site cluster 1 in
  let outcomes = ref [] in
  submit site1 (-10) (fun r -> outcomes := r.Update.outcome :: !outcomes);
  Alcotest.(check bool) "committed inside the call" true
    (!outcomes = [ Update.Applied Update.Local ]);
  Site.crash site1;
  Cluster.run cluster;
  Alcotest.(check bool) "callback fired exactly once" true
    (!outcomes = [ Update.Applied Update.Local ]);
  Site.recover site1;
  check_conserved cluster

let crash_fails_nested_submission submit () =
  (* The first operation commits locally inside its call; its callback
     submits a second that must borrow AV, and site 1 is cut off, so the
     second is still waiting when the site crashes. *)
  let cluster = Cluster.create (config ()) in
  Cluster.partition cluster 1 0;
  Cluster.partition cluster 1 2;
  let site1 = Cluster.site cluster 1 in
  let first = ref [] and second = ref [] in
  submit site1 (-10) (fun r ->
      first := r.Update.outcome :: !first;
      submit site1 (-50) (fun r -> second := r.Update.outcome :: !second));
  Alcotest.(check bool) "first committed inside its call" true
    (!first = [ Update.Applied Update.Local ]);
  Alcotest.(check int) "second waits on AV" 0 (List.length !second);
  Site.crash site1;
  Alcotest.(check bool) "crash fails the second" true
    (!second = [ Update.Rejected Update.Unreachable ]);
  Cluster.run cluster;
  Alcotest.(check bool) "second failed exactly once" true
    (!second = [ Update.Rejected Update.Unreachable ]);
  Alcotest.(check bool) "first never fires again" true (!first = [ Update.Applied Update.Local ]);
  Cluster.heal cluster 1 0;
  Cluster.heal cluster 1 2;
  Site.recover site1;
  check_conserved cluster;
  check_conserved ~item:"product1" cluster

let test_crash_inside_a_submission () =
  (* One epoch item on a lone site, sealed two intents at a time: the
     second submission seals both inside its own call and wakes the first,
     whose callback crashes and recovers the site. Recovery forgets the
     second's waiter, so the second is failed as the crash would have
     failed it, exactly once. *)
  let cluster =
    Cluster.create
      {
        (config ~n_sites:1 ()) with
        Config.products = Product.mixed ~n_regular:0 ~n_non_regular:0 ~n_epoch:1 ~initial_amount:100;
        epoch_batch = 2;
      }
  in
  let site = Cluster.site cluster 0 in
  let first = ref [] and second = ref [] in
  Site.submit_update site ~item:"epoch0" ~delta:(-1) (fun r ->
      first := r.Update.outcome :: !first;
      Site.crash site;
      Site.recover site);
  Site.submit_update site ~item:"epoch0" ~delta:(-2) (fun r ->
      second := r.Update.outcome :: !second);
  Cluster.run cluster;
  Alcotest.(check bool) "first sealed" true (!first = [ Update.Applied Update.Epoch ]);
  Alcotest.(check bool) "second failed exactly once" true
    (!second = [ Update.Rejected Update.Unreachable ])

let test_recover_releases_held_av () =
  (* Crash wipes in-memory protocol state; recovery must return any AV
     held by abandoned operations to the available pool, or the volume
     is stranded forever. *)
  let cluster = Cluster.create (config ()) in
  let site1 = Cluster.site cluster 1 in
  Site.crash site1;
  Site.recover site1;
  Alcotest.(check int) "nothing held after recovery" 0
    (Av_table.held (Site.av_table site1) ~item:"product0");
  check_conserved cluster

(* --- acquire_av failure accounting under injected loss --- *)

let test_acquire_av_gives_up_cleanly_under_total_loss () =
  (* Every request is dropped: the site must try each donor, observe the
     timeout, and give up with [Av_exhausted] — leaving no AV stuck in
     held and the conservation ledger intact (no grant ever left a donor). *)
  let cluster = Cluster.create (config ~allocation:Config.All_at_base ()) in
  Cluster.set_drop_probability cluster 1.0;
  let result = ref None in
  let site1 = Cluster.site cluster 1 in
  Site.submit_update site1 ~item:"product0" ~delta:(-10) (fun r -> result := Some r);
  Cluster.run cluster;
  (match !result with
  | Some { Update.outcome = Update.Rejected Update.Av_exhausted; _ } -> ()
  | Some r -> Alcotest.failf "expected Av_exhausted, got %a" Update.pp_result r
  | None -> Alcotest.fail "update hung under total loss");
  let m = Site.metrics site1 in
  Alcotest.(check bool) "transfer rounds were attempted and accounted" true
    (m.Update.Metrics.av_requests_sent >= 2);
  Alcotest.(check int) "failure recorded" 1 m.Update.Metrics.rejected;
  Alcotest.(check int) "no AV stuck in held" 0
    (Av_table.held (Site.av_table site1) ~item:"product0");
  Alcotest.(check int) "no volume conjured from thin air" 0
    (Av_table.available (Site.av_table site1) ~item:"product0");
  check_conserved cluster;
  (* Closing the window makes the same request succeed. *)
  Cluster.set_drop_probability cluster 0.;
  let result2 = ref None in
  Site.submit_update site1 ~item:"product0" ~delta:(-10) (fun r -> result2 := Some r);
  Cluster.run cluster;
  Alcotest.(check bool) "succeeds once the loss window closes" true
    (match !result2 with Some r -> Update.is_applied r | None -> false);
  check_conserved cluster

let test_retransmission_preserves_conservation_under_loss () =
  (* A persistently lossy network with retransmission enabled: the reply
     cache makes retried grants at-most-once, so volume is neither lost
     nor double-granted even when replies are what got dropped. *)
  let cluster =
    Cluster.create
      (config ~allocation:Config.All_at_base ~drop:0.15 ~sync_ms:20. ~retry:retry_policy
         ~seed:23 ())
  in
  let engine = Cluster.engine cluster in
  let settled = ref 0 and applied = ref 0 in
  for i = 0 to 59 do
    let site = 1 + (i mod 2) in
    ignore
      (Engine.schedule_at engine ~at:(Time.of_ms (float_of_int i *. 5.)) (fun () ->
           Site.submit_update (Cluster.site cluster site) ~item:"product0" ~delta:(-1)
             (fun r ->
               incr settled;
               if Update.is_applied r then incr applied)))
  done;
  Cluster.run cluster;
  Alcotest.(check int) "every update settled" 60 !settled;
  Alcotest.(check bool) "losses actually happened" true
    (Avdb_net.Stats.total_dropped (Cluster.net_stats cluster) > 0);
  Cluster.set_drop_probability cluster 0.;
  flush_until_converged cluster;
  (match Cluster.replica_amounts cluster ~item:"product0" with
  | amount :: _ ->
      Alcotest.(check int) "agreed total matches applied sales" (100 - !applied) amount
  | [] -> Alcotest.fail "no replicas");
  check_conserved cluster

(* --- duplication and reordering --- *)

let test_duplication_and_reordering_converge () =
  (* Heavy duplication + reordering, no loss: duplicated AV requests must
     not double-grant (reply cache) and sync notices carry cumulative
     counters, so replicas still converge to the exact total. *)
  let cluster =
    Cluster.create
      (config ~allocation:Config.All_at_base ~sync_ms:20. ~retry:retry_policy ~seed:29 ())
  in
  Cluster.set_duplicate_probability cluster 0.5;
  Cluster.set_reorder_probability cluster 0.5;
  let engine = Cluster.engine cluster in
  let settled = ref 0 and applied_sum = ref 0 in
  for i = 0 to 39 do
    let site = i mod 3 in
    let delta = if site = 0 then 2 else -2 in
    ignore
      (Engine.schedule_at engine ~at:(Time.of_ms (float_of_int i *. 5.)) (fun () ->
           Site.submit_update (Cluster.site cluster site) ~item:"product0" ~delta (fun r ->
               incr settled;
               if Update.is_applied r then applied_sum := !applied_sum + delta)))
  done;
  Cluster.run cluster;
  Alcotest.(check int) "every update settled" 40 !settled;
  Alcotest.(check bool) "duplicates actually injected" true
    (Avdb_net.Stats.total_duplicated (Cluster.net_stats cluster) > 0);
  Cluster.set_duplicate_probability cluster 0.;
  Cluster.set_reorder_probability cluster 0.;
  flush_until_converged cluster;
  (match Cluster.replica_amounts cluster ~item:"product0" with
  | amount :: _ ->
      (* Duplicated requests must not double-grant or double-apply: the
         agreed total is exactly the sum of applied deltas. *)
      Alcotest.(check int) "exact total despite duplicates" (100 + !applied_sum) amount
  | [] -> Alcotest.fail "no replicas");
  check_conserved cluster

(* --- granting-rule regression at system level --- *)

let test_half_grant_serves_scarce_system () =
  (* Regression for the Half-granting floor bug: with one unit per site,
     floor(1/2) = 0 grants livelocked every transfer; the ceiling grants
     the single unit and the sale completes. *)
  let cluster = Cluster.create (config ~initial:3 ()) in
  let result = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:"product0" ~delta:(-2) (fun r ->
      result := Some r);
  Cluster.run cluster;
  (match !result with
  | Some { Update.outcome = Update.Applied (Update.With_transfer _); _ } -> ()
  | Some r -> Alcotest.failf "expected a transfer-assisted apply, got %a" Update.pp_result r
  | None -> Alcotest.fail "hung");
  check_conserved cluster

(* --- centralized-mode status discrimination, end to end --- *)

let test_central_unknown_item_vs_insufficient () =
  let cluster =
    Cluster.create { (config ()) with Config.mode = Config.Centralized }
  in
  let base_db = Site.database (Cluster.base_site cluster) in
  let txn = Avdb_store.Database.begin_txn base_db in
  (match Avdb_store.Database.delete txn ~table:Site.stock_table ~key:"product0" with
  | Ok () -> Avdb_store.Database.commit txn
  | Error e -> Alcotest.fail e);
  let unknown = ref None and short = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:"product0" ~delta:(-1) (fun r ->
      unknown := Some r);
  Site.submit_update (Cluster.site cluster 1) ~item:"product1" ~delta:(-500) (fun r ->
      short := Some r);
  Cluster.run cluster;
  (match !unknown with
  | Some { Update.outcome = Update.Rejected (Update.Unknown_item "product0"); _ } -> ()
  | Some r -> Alcotest.failf "expected Unknown_item, got %a" Update.pp_result r
  | None -> Alcotest.fail "hung");
  match !short with
  | Some { Update.outcome = Update.Rejected Update.Insufficient_stock; _ } -> ()
  | Some r -> Alcotest.failf "expected Insufficient_stock, got %a" Update.pp_result r
  | None -> Alcotest.fail "hung"

(* --- the whole gauntlet --- *)

let test_scripted_fault_gauntlet () =
  (* One run through every injected fault — loss window, duplication +
     reordering window, a partition, a crash with recovery — under a
     steady SCM workload, ending converged with AV conserved. *)
  let cluster = Cluster.create (config ~sync_ms:20. ~retry:retry_policy ~seed:41 ()) in
  let engine = Cluster.engine cluster in
  let at_ms ms f = ignore (Engine.schedule_at engine ~at:(Time.of_ms ms) f) in
  at_ms 100. (fun () -> Cluster.set_drop_probability cluster 0.2);
  at_ms 300. (fun () -> Cluster.set_drop_probability cluster 0.);
  at_ms 400. (fun () ->
      Cluster.set_duplicate_probability cluster 0.3;
      Cluster.set_reorder_probability cluster 0.3);
  at_ms 600. (fun () ->
      Cluster.set_duplicate_probability cluster 0.;
      Cluster.set_reorder_probability cluster 0.);
  at_ms 700. (fun () -> Cluster.partition cluster 1 2);
  at_ms 900. (fun () -> Cluster.heal cluster 1 2);
  at_ms 1000. (fun () -> Site.crash (Cluster.site cluster 2));
  at_ms 1200. (fun () -> Site.recover (Cluster.site cluster 2));
  let wl = Scm.create (Scm.paper_spec ~n_sites:3 ~n_items:4 ()) ~seed:41 in
  let settled = ref 0 in
  for i = 0 to 299 do
    let site, item, delta = Scm.generator wl i in
    at_ms (float_of_int i *. 5.) (fun () ->
        Site.submit_update (Cluster.site cluster site) ~item ~delta (fun _ -> incr settled))
  done;
  Cluster.run cluster;
  Alcotest.(check int) "every submission settled" 300 !settled;
  let stats = Cluster.net_stats cluster in
  Alcotest.(check bool) "all three injections exercised" true
    (Avdb_net.Stats.total_dropped stats > 0
    && Avdb_net.Stats.total_duplicated stats > 0
    && Avdb_net.Stats.total_reordered stats > 0);
  flush_until_converged cluster;
  List.iter
    (fun item -> flush_until_converged ~item cluster)
    [ "product1"; "product2"; "product3" ];
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suites =
  [
    ( "core.fault-injection",
      [
        Alcotest.test_case "crash fails in-flight exactly once" `Quick
          test_crash_fails_inflight_exactly_once;
        Alcotest.test_case "crash after a local commit" `Quick
          (crash_after_local_commit submit_one);
        Alcotest.test_case "crash fails a nested submission once" `Quick
          (crash_fails_nested_submission submit_one);
        Alcotest.test_case "crash after a local batch" `Quick
          (crash_after_local_commit submit_batch);
        Alcotest.test_case "crash fails a nested batch once" `Quick
          (crash_fails_nested_submission submit_batch);
        Alcotest.test_case "crash inside a submission" `Quick test_crash_inside_a_submission;
        Alcotest.test_case "recover releases held AV" `Quick test_recover_releases_held_av;
        Alcotest.test_case "acquire_av gives up cleanly" `Quick
          test_acquire_av_gives_up_cleanly_under_total_loss;
        Alcotest.test_case "retransmission conserves AV" `Quick
          test_retransmission_preserves_conservation_under_loss;
        Alcotest.test_case "dup+reorder converge" `Quick test_duplication_and_reordering_converge;
        Alcotest.test_case "half-grant serves scarce system" `Quick
          test_half_grant_serves_scarce_system;
        Alcotest.test_case "central unknown vs insufficient" `Quick
          test_central_unknown_item_vs_insufficient;
        Alcotest.test_case "scripted fault gauntlet" `Slow test_scripted_fault_gauntlet;
      ] );
  ]
