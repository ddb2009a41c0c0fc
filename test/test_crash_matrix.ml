(* Coordinator and participant crashes at every phase boundary of the
   Immediate Update 2PC, each case ending with cross-log decision
   agreement, zero in-doubt transactions, converged replicas and
   exactly-once continuations.

   With the default constant 1 ms latency the protocol phases land at
   known instants: the coordinator records Start and broadcasts prepares in
   the submission handler at t=0; participants log their own Start and
   vote at t=1; the last vote arrives at t=2, where the outcome record and
   the coordinator's local commit happen in the same atomic event;
   decisions are delivered at t=3 and acks close the round at t=4. A crash
   scheduled strictly between two of those instants therefore hits a
   precise protocol state. *)

open Avdb_core
module Time = Avdb_sim.Time
module Engine = Avdb_sim.Engine
module Txn_log = Avdb_txn.Txn_log

let item = "special0"

let make_cluster () =
  Cluster.create
    {
      Config.default with
      Config.n_sites = 4;
      products = Product.catalogue ~n_regular:1 ~n_non_regular:1 ~initial_amount:100;
      seed = 7;
    }

(* Submit one Immediate Update from site 1, crash [crash_site] at
   [crash_ms], recover it at [recover_ms], drain everything. *)
let run_case ?(recover_ms = 2000.) ~crash_site ~crash_ms () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let victim = Cluster.site cluster crash_site in
  let fired = ref 0 and result = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item ~delta:(-5) (fun r ->
      incr fired;
      result := Some r);
  ignore (Engine.schedule_at engine ~at:(Time.of_ms crash_ms) (fun () -> Site.crash victim));
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms recover_ms) (fun () -> Site.recover victim));
  Cluster.run cluster;
  (cluster, fired, result)

let assert_clean cluster ~amount =
  (match Cluster.decision_agreement cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "nothing left in doubt" 0 (Cluster.in_doubt_total cluster);
  List.iteri
    (fun i a -> Alcotest.(check int) (Printf.sprintf "site%d replica" i) amount a)
    (Cluster.replica_amounts cluster ~item)

let rejected_unreachable result =
  match !result with
  | Some { Update.outcome = Update.Rejected Update.Unreachable; _ } -> true
  | _ -> false

(* The prepare broadcast is lost with the crash: the coordinator is cut
   off from every peer when it submits, so the prepares are dropped in
   flight, nobody else ever hears of the transaction, and recovery closes
   the orphaned Start record with a presumed abort. *)
let test_coordinator_crash_before_prepare () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let coord = Cluster.site cluster 1 in
  List.iter (fun p -> Cluster.partition cluster 1 p) [ 0; 2; 3 ];
  let fired = ref 0 and result = ref None in
  Site.submit_update coord ~item ~delta:(-5) (fun r ->
      incr fired;
      result := Some r);
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 0.5) (fun () -> Site.crash coord));
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 2000.) (fun () ->
         List.iter (fun p -> Cluster.heal cluster 1 p) [ 0; 2; 3 ];
         Site.recover coord));
  Cluster.run cluster;
  Alcotest.(check bool) "client saw the crash" true (rejected_unreachable result);
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check int) "no participant ever prepared" 0
    (Txn_log.length (Site.txn_log (Cluster.site cluster 2)));
  Alcotest.(check int) "coordinator closed its orphan as an abort" 1
    (Txn_log.aborted (Site.txn_log coord));
  assert_clean cluster ~amount:100

(* Crash after the participants prepared but before any decision exists:
   the cohort is in doubt holding exclusive locks; the recovered
   coordinator finds Start without an outcome, records the presumed abort and
   pushes it, while the participants' termination protocol pulls. *)
let test_coordinator_crash_after_prepares () =
  let cluster, fired, result = run_case ~crash_site:1 ~crash_ms:1.5 () in
  Alcotest.(check bool) "client saw the crash" true (rejected_unreachable result);
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check bool) "participants were in doubt" true
    (Txn_log.length (Site.txn_log (Cluster.site cluster 2)) > 0);
  Alcotest.(check int) "aborted at the participant" 1
    (Txn_log.aborted (Site.txn_log (Cluster.site cluster 2)));
  assert_clean cluster ~amount:100

(* The acceptance case: crash after the Commit outcome is durably logged
   (and, same atomic event, the local part committed) but before any
   participant hears the decision. Recovery must re-broadcast Commit — a
   participant that aborted here would be a 2PC safety violation. *)
let test_coordinator_crash_after_commit_logged () =
  let cluster, fired, result = run_case ~crash_site:1 ~crash_ms:2.5 () in
  Alcotest.(check bool) "client saw the crash" true (rejected_unreachable result);
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  for i = 0 to Cluster.n_sites cluster - 1 do
    let log = Site.txn_log (Cluster.site cluster i) in
    Alcotest.(check int) (Printf.sprintf "site%d committed" i) 1 (Txn_log.committed log);
    Alcotest.(check int) (Printf.sprintf "site%d never aborted" i) 0 (Txn_log.aborted log)
  done;
  assert_clean cluster ~amount:95

(* Crash after the base ack completed the update: the client already got
   its answer; recovery sees the End record and must not re-install the
   coordination or fire the continuation a second time. *)
let test_coordinator_crash_after_completion () =
  let cluster, fired, result = run_case ~crash_site:1 ~crash_ms:6. () in
  (match !result with
  | Some { Update.outcome = Update.Applied Update.Immediate; _ } -> ()
  | Some r -> Alcotest.failf "expected an immediate apply, got %a" Update.pp_result r
  | None -> Alcotest.fail "update never settled");
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check int) "recovery re-broadcast nothing" 0
    (Site.metrics (Cluster.site cluster 1)).Update.Metrics.decision_rebroadcasts;
  assert_clean cluster ~amount:95

(* A participant (not the coordinator) crashes right after logging its
   Ready vote: the vote is already on the wire, so the transaction commits
   without it — the crashed site misses the Decision message, re-installs
   the in-doubt transaction from its durable Start record on recovery, and
   learns Commit from the coordinator's log through the termination
   protocol. Its tentative write must be redone, not lost. *)
let test_participant_crash_in_doubt () =
  let cluster, fired, result = run_case ~crash_site:2 ~crash_ms:1.5 () in
  (match !result with
  | Some { Update.outcome = Update.Applied Update.Immediate; _ } -> ()
  | Some r -> Alcotest.failf "expected an immediate apply, got %a" Update.pp_result r
  | None -> Alcotest.fail "update never settled");
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  let m = Site.metrics (Cluster.site cluster 2) in
  Alcotest.(check int) "in-doubt transaction re-installed from the log" 1
    m.Update.Metrics.in_doubt_recovered;
  Alcotest.(check int) "recovered participant committed" 1
    (Txn_log.committed (Site.txn_log (Cluster.site cluster 2)));
  assert_clean cluster ~amount:95

(* Partial votes via a partition: site 3 never receives its prepare, so
   the coordinator sits on an incomplete vote set when it crashes. The
   in-doubt survivors exercise the whole termination ladder — the dead
   coordinator, the (equally in-doubt) base, and finally site 3, whose
   durable Will-refuse pledge lets them abort without the coordinator. *)
let test_coordinator_crash_partial_votes () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let coord = Cluster.site cluster 1 in
  Cluster.partition cluster 1 3;
  let fired = ref 0 in
  Site.submit_update coord ~item ~delta:(-5) (fun _ -> incr fired);
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 10.) (fun () -> Site.crash coord));
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 5000.) (fun () ->
         Cluster.heal cluster 1 3;
         Site.recover coord));
  Cluster.run ~until:(Time.of_ms 4999.) cluster;
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "site%d aborted before the coordinator came back" i)
        1
        (Txn_log.aborted (Site.txn_log (Cluster.site cluster i))))
    [ 0; 2 ];
  Cluster.run cluster;
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  let txid = Txn_log.max_txid (Site.txn_log coord) in
  Alcotest.(check bool) "site3 logged its refusal pledge" true
    (Txn_log.is_refused (Site.txn_log (Cluster.site cluster 3)) ~txid);
  Alcotest.(check bool) "survivors ran the termination protocol" true
    ((Site.metrics (Cluster.site cluster 2)).Update.Metrics.termination_queries > 0);
  assert_clean cluster ~amount:100

(* --- storage faults: one pinned scenario per fault class ---

   Same deterministic setting, but the crash now also damages a durable
   log through the faultable sink. The matrix pins the repair ladder:
   torn tails cost nothing, WAL-only loss is rebuilt locally (exactly),
   and protocol-log loss forces amnesia, quarantine and remote repair
   from the base — corruption may cost availability and repair traffic,
   never consistency. *)

let regular = "product0"

let metrics cluster i = Site.metrics (Cluster.site cluster i)

let check_regular cluster ~amount =
  List.iteri
    (fun i a -> Alcotest.(check int) (Printf.sprintf "site%d replica" i) amount a)
    (Cluster.replica_amounts cluster ~item:regular)

let check_no_quarantine cluster =
  for i = 0 to Cluster.n_sites cluster - 1 do
    Alcotest.(check (list string))
      (Printf.sprintf "site%d quarantine empty" i)
      []
      (Site.quarantined_items (Cluster.site cluster i))
  done

(* Arms a WAL fault on [victim], its log checkpointed first when
   [checkpoint]: recovery then reads a snapshot plus an empty tail, and a
   fault that reaches the snapshot must cost no more than one that reaches
   the same records of an unfolded log. *)
let arm_wal ~checkpoint victim spec =
  if checkpoint then Avdb_store.Database.compact (Site.database victim);
  Site.arm_disk_fault victim ~target:`Wal spec

(* A torn tail is damage past the last synced frame: recovery keeps the
   whole prefix, loses nothing, rebuilds nothing. *)
let test_storage_wal_torn_tail ~checkpoint () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let victim = Cluster.site cluster 1 in
  Site.submit_update victim ~item:regular ~delta:(-5) ignore;
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 50.) (fun () ->
         arm_wal ~checkpoint victim Avdb_store.Disk_fault.Torn_tail;
         Site.crash victim));
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 200.) (fun () -> Site.recover victim));
  Cluster.run cluster;
  Cluster.flush_all_syncs cluster;
  Alcotest.(check int) "no checksum failures" 0 (metrics cluster 1).Update.Metrics.checksum_failures;
  Alcotest.(check int) "no repairs" 0 (metrics cluster 1).Update.Metrics.repairs;
  Alcotest.(check bool) "no amnesia" false (Site.is_amnesiac victim);
  check_no_quarantine cluster;
  check_regular cluster ~amount:95

(* Lost fsync silently drops applied WAL rows. The durable sync
   counters still bound every committed delta exactly, so recovery
   reconstructs the regular row locally — no repair traffic at all. *)
let test_storage_wal_lost_fsync_rebuild ~checkpoint () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let victim = Cluster.site cluster 1 in
  List.iter
    (fun at ->
      ignore
        (Engine.schedule_at engine ~at:(Time.of_ms at) (fun () ->
             Site.submit_update victim ~item:regular ~delta:(-5) ignore)))
    [ 0.; 5.; 10. ];
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 50.) (fun () ->
         arm_wal ~checkpoint victim (Avdb_store.Disk_fault.Lost_fsync { frames = 6 });
         Site.crash victim));
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 200.) (fun () -> Site.recover victim));
  Cluster.run cluster;
  Cluster.flush_all_syncs cluster;
  Alcotest.(check int) "rebuilt locally, no repairs" 0
    (metrics cluster 1).Update.Metrics.repairs;
  Alcotest.(check bool) "no amnesia" false (Site.is_amnesiac victim);
  check_no_quarantine cluster;
  check_regular cluster ~amount:85

(* A bit flip inside the synced WAL prefix of a committed participant:
   the CRC catches it, the lost 2PC row is rebuilt from the (intact)
   protocol log's committed outcomes — still a purely local recovery. *)
let test_storage_wal_bit_flip ~checkpoint () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let victim = Cluster.site cluster 2 in
  let fired = ref 0 in
  Site.submit_update (Cluster.site cluster 1) ~item ~delta:(-5) (fun _ -> incr fired);
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 50.) (fun () ->
         arm_wal ~checkpoint victim (Avdb_store.Disk_fault.Bit_flip { pos = 0.5 });
         Site.crash victim));
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 200.) (fun () -> Site.recover victim));
  Cluster.run cluster;
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check bool) "flip detected by the checksums" true
    ((metrics cluster 2).Update.Metrics.checksum_failures >= 1);
  Alcotest.(check int) "no repairs" 0 (metrics cluster 2).Update.Metrics.repairs;
  Alcotest.(check bool) "no amnesia" false (Site.is_amnesiac victim);
  check_no_quarantine cluster;
  assert_clean cluster ~amount:95

(* A misdirected block write at the base: a CRC-valid frame lands at the
   wrong offset, the stamped sequence number exposes it, and the base's
   row is rebuilt from its protocol log — authoritative reads stay
   exact. *)
let test_storage_wal_misdirect_at_base ~checkpoint () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let victim = Cluster.site cluster 0 in
  let fired = ref 0 in
  Site.submit_update (Cluster.site cluster 1) ~item ~delta:(-5) (fun _ -> incr fired);
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 50.) (fun () ->
         arm_wal ~checkpoint victim (Avdb_store.Disk_fault.Misdirect { pos = 0.1 });
         Site.crash victim));
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 200.) (fun () -> Site.recover victim));
  Cluster.run cluster;
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check bool) "misdirect detected" true
    ((metrics cluster 0).Update.Metrics.checksum_failures >= 1);
  Alcotest.(check bool) "no amnesia" false (Site.is_amnesiac victim);
  check_no_quarantine cluster;
  assert_clean cluster ~amount:95

(* Whole-segment loss of a committed participant's protocol log: "no
   entry" stops implying "never happened", so the site goes amnesiac,
   quarantines its non-regular replica and repairs it from the base —
   the one class that costs repair traffic. *)
let test_storage_txn_log_lost_segment () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let victim = Cluster.site cluster 2 in
  let fired = ref 0 in
  Site.submit_update (Cluster.site cluster 1) ~item ~delta:(-5) (fun _ -> incr fired);
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 50.) (fun () ->
         Site.arm_disk_fault victim ~target:`Txn
           (Avdb_store.Disk_fault.Lost_segment { pos = 0. });
         Site.crash victim));
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 200.) (fun () -> Site.recover victim));
  Cluster.run cluster;
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check bool) "amnesia is sticky" true (Site.is_amnesiac victim);
  Alcotest.(check bool) "repaired from the base" true
    ((metrics cluster 2).Update.Metrics.repairs >= 1);
  Alcotest.(check bool) "repair moved bytes" true
    ((metrics cluster 2).Update.Metrics.repair_bytes > 0);
  check_no_quarantine cluster;
  assert_clean cluster ~amount:95

(* The deep one: the coordinator loses its protocol log while the
   cohort is in doubt — prepares logged everywhere, no outcome yet. A
   log-intact coordinator would close its orphaned Start with a presumed
   abort and push it; this one has no Start left and answers
   [No_record], which presumed-abort must NOT treat as "never happened".
   The in-doubt participants adjudicate among themselves instead — every
   survivor only ever prepared, so the unanimous sweep concludes Abort —
   while the amnesiac coordinator quarantines and repairs its suspect
   replica from the base. *)
let test_storage_coordinator_amnesia_adjudication () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let coord = Cluster.site cluster 1 in
  let fired = ref 0 and result = ref None in
  Site.submit_update coord ~item ~delta:(-5) (fun r ->
      incr fired;
      result := Some r);
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 1.5) (fun () ->
         Site.arm_disk_fault coord ~target:`Txn
           (Avdb_store.Disk_fault.Lost_segment { pos = 0. });
         Site.crash coord));
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 2000.) (fun () -> Site.recover coord));
  Cluster.run cluster;
  Alcotest.(check bool) "client saw the crash" true (rejected_unreachable result);
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check bool) "coordinator went amnesiac" true (Site.is_amnesiac coord);
  Alcotest.(check int) "participants adjudicated an abort" 1
    (Txn_log.aborted (Site.txn_log (Cluster.site cluster 2)));
  Alcotest.(check bool) "stale committed row repaired away" true
    ((metrics cluster 1).Update.Metrics.repairs >= 1);
  check_no_quarantine cluster;
  assert_clean cluster ~amount:100

(* The coordinator loses only its outcome record. Site 3 is cut off from
   the Commit broadcast, and the coordinator crashes before the acks land
   with its last synced frame — the outcome — lost. It recovers amnesiac
   with a Start and no outcome, so while it adjudicates with the cohort
   it must answer site 3 "still pending", never a presumed abort: sites 0
   and 2 already committed. *)
let test_storage_coordinator_loses_outcome () =
  let cluster = make_cluster () in
  let engine = Cluster.engine cluster in
  let coord = Cluster.site cluster 1 in
  let at ms f = ignore (Engine.schedule_at engine ~at:(Time.of_ms ms) f) in
  Site.submit_update coord ~item ~delta:(-5) (fun _ -> ());
  at 2.5 (fun () -> Cluster.partition cluster 1 3);
  at 3.5 (fun () ->
      Site.arm_disk_fault coord ~target:`Txn (Avdb_store.Disk_fault.Lost_fsync { frames = 1 });
      Site.crash coord);
  at 500.5 (fun () -> Cluster.heal cluster 1 3);
  at 501. (fun () -> Site.recover coord);
  Cluster.run cluster;
  Alcotest.(check bool) "coordinator went amnesiac" true (Site.is_amnesiac coord);
  check_no_quarantine cluster;
  assert_clean cluster ~amount:95

(* Seed 3 of the disk-fault epoch sweep ([avdb-nemesis --disk-faults
   --epoch 2 --oracle]), shrunk to its two faults: a lost WAL segment on
   subscriber 3, then its crash. The lost frames held sealed epoch
   applies. Recovery re-derives the applied prefix from the seal records
   and never re-applies it, so the rebuild must restore each epoch row as
   its initial amount plus the deltas of those seals. *)
let test_storage_wal_lost_segment_epoch () =
  let module N = Avdb_chaos.Nemesis in
  let config =
    { (N.default ~seed:3) with N.n_epoch = 2; disk_faults = true; oracle = true }
  in
  let outcome =
    N.execute config
      [
        N.Disk_fault
          {
            site = 3;
            at_ms = 575.;
            target = `Wal;
            spec = Avdb_store.Disk_fault.Lost_segment { pos = 0.716 };
          };
        N.Crash { site = 3; at_ms = 576.; for_ms = 283. };
      ]
  in
  Alcotest.(check bool) "the segment was lost" true
    (outcome.N.stats.N.segments_quarantined >= 1);
  Alcotest.(check (list string)) "no violations" [] outcome.N.violations

(* --- epoch-quorum commit: crashes at every protocol boundary ---

   Same deterministic setting (constant 1 ms latency, 5 ms pump ticks):
   a submission buffers its intent at t=0; the rotating sequencer for
   epoch 1 of "epoch0" on 3 sites is site 1; a proposal goes out on the
   5 ms pump tick, acceptor votes land at 7 ms sealing the epoch at the
   proposer, and the seal broadcast reaches subscribers at 8 ms. Every
   case must end with zero unsealed intents, cross-log seal agreement
   and exact convergence — the intent applies exactly once no matter
   where the crash lands. *)

module Address = Avdb_net.Address

let epoch_item = "epoch0"

let make_epoch_cluster ?(n_sites = 3) () =
  Cluster.create
    {
      Config.default with
      Config.n_sites;
      products = Product.mixed ~n_regular:0 ~n_non_regular:0 ~n_epoch:1 ~initial_amount:1000;
      seed = 7;
    }

(* Epoch convergence needs the force-flush loop: a lost seal broadcast
   re-sends only on the next flush pass. *)
let epoch_quiesce cluster =
  Cluster.run cluster;
  let rec go n =
    Cluster.flush_all_syncs cluster;
    if Cluster.unsealed_intent_total cluster > 0 && n > 0 then go (n - 1)
  in
  go 50

let assert_epoch_clean cluster ~amount =
  (match Cluster.sealed_epoch_agreement cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "zero unsealed intents" 0 (Cluster.unsealed_intent_total cluster);
  List.iteri
    (fun i a -> Alcotest.(check int) (Printf.sprintf "site%d replica" i) amount a)
    (Cluster.replica_amounts cluster ~item:epoch_item)

(* Writer crashes right after durably logging its intent, before any
   pump tick sends it anywhere. The client sees the crash — but the
   intent survives in the log, is re-buffered by recovery and still
   applies exactly once, cluster-wide. *)
let test_epoch_writer_crash_after_intent () =
  let cluster = make_epoch_cluster () in
  let engine = Cluster.engine cluster in
  let writer = Cluster.site cluster 2 in
  let fired = ref 0 and result = ref None in
  Site.submit_update writer ~item:epoch_item ~delta:(-10) (fun r ->
      incr fired;
      result := Some r);
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 0.5) (fun () -> Site.crash writer));
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 50.) (fun () -> Site.recover writer));
  epoch_quiesce cluster;
  Alcotest.(check bool) "client saw the crash" true (rejected_unreachable result);
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  assert_epoch_clean cluster ~amount:990

(* The sequencer crashes holding the writer's intent, before proposing:
   nothing is accepted anywhere, so the epoch is presumed unsealed. The
   writer's pump escalates to ballot 1, whose candidate (site 2) takes
   over with a collect round and seals the epoch itself. *)
let test_epoch_sequencer_crash_before_seal () =
  let cluster = make_epoch_cluster () in
  let engine = Cluster.engine cluster in
  let sequencer = Cluster.site cluster 1 in
  let fired = ref 0 and result = ref None in
  Site.submit_update (Cluster.site cluster 0) ~item:epoch_item ~delta:(-10) (fun r ->
      incr fired;
      result := Some r);
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 8.) (fun () -> Site.crash sequencer));
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 2000.) (fun () -> Site.recover sequencer));
  epoch_quiesce cluster;
  (match !result with
  | Some { Update.outcome = Update.Applied Update.Epoch; _ } -> ()
  | Some r -> Alcotest.failf "expected an epoch apply, got %a" Update.pp_result r
  | None -> Alcotest.fail "update never settled");
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check bool) "a successor ran a takeover" true
    ((Site.metrics (Cluster.site cluster 0)).Update.Metrics.epoch_takeovers
     + (Site.metrics (Cluster.site cluster 2)).Update.Metrics.epoch_takeovers
    >= 1);
  assert_epoch_clean cluster ~amount:990

(* The sequencer crashes right after sealing: the seal record and local
   apply are already durable and the broadcast is on the wire, so the
   subscribers finish the epoch while the sequencer is down — and its
   recovery must not re-apply its own seal. *)
let test_epoch_sequencer_crash_after_seal () =
  let cluster = make_epoch_cluster () in
  let engine = Cluster.engine cluster in
  let sequencer = Cluster.site cluster 1 in
  let fired = ref 0 and result = ref None in
  Site.submit_update sequencer ~item:epoch_item ~delta:(-10) (fun r ->
      incr fired;
      result := Some r);
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 7.5) (fun () -> Site.crash sequencer));
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 2000.) (fun () -> Site.recover sequencer));
  epoch_quiesce cluster;
  (match !result with
  | Some { Update.outcome = Update.Applied Update.Epoch; _ } -> ()
  | Some r -> Alcotest.failf "expected an epoch apply, got %a" Update.pp_result r
  | None -> Alcotest.fail "update never settled");
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check int) "sealed exactly one epoch" 1
    (Site.metrics sequencer).Update.Metrics.epochs_sealed;
  assert_epoch_clean cluster ~amount:990

(* Takeover with a potentially-decided value in flight: the sequencer
   crashes after the acceptors durably accepted its proposal but before
   any vote got back, so no seal exists anywhere — yet the value might
   have been decided. The successor's collect surfaces the accepted
   proposal and the takeover must adopt it: epoch 1 seals with the dead
   sequencer's intent, and the successor's own intent waits for epoch 2. *)
let test_epoch_takeover_adopts_accepted_value () =
  let cluster = make_epoch_cluster () in
  let engine = Cluster.engine cluster in
  let sequencer = Cluster.site cluster 1 in
  let fired = ref 0 in
  Site.submit_update sequencer ~item:epoch_item ~delta:(-10) (fun _ -> incr fired);
  Site.submit_update (Cluster.site cluster 2) ~item:epoch_item ~delta:(-3) (fun _ ->
      incr fired);
  ignore (Engine.schedule_at engine ~at:(Time.of_ms 6.5) (fun () -> Site.crash sequencer));
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 2000.) (fun () -> Site.recover sequencer));
  epoch_quiesce cluster;
  Alcotest.(check int) "both continuations fired exactly once" 2 !fired;
  Alcotest.(check bool) "a successor ran a takeover" true
    ((Site.metrics (Cluster.site cluster 0)).Update.Metrics.epoch_takeovers
     + (Site.metrics (Cluster.site cluster 2)).Update.Metrics.epoch_takeovers
    >= 1);
  (match
     Txn_log.epoch_seal (Site.txn_log (Cluster.site cluster 0)) ~item:epoch_item ~epoch:1
   with
  | Some seal ->
      Alcotest.(check bool) "epoch 1 adopted the dead sequencer's intent" true
        (List.exists
           (fun (i : Txn_log.intent) -> Address.to_int i.Txn_log.i_origin = 1)
           seal)
  | None -> Alcotest.fail "epoch 1 never sealed at site 0");
  assert_epoch_clean cluster ~amount:987

(* The seal broadcast is lost in its entirety (a total-loss window opens
   just as the votes land): the sequencer has sealed and answered its
   client, the acceptors hold accepts but no seal. The quiescence flush
   re-broadcasts to the lagging subscribers — no client retry, no
   takeover, no double apply. *)
let test_epoch_seal_broadcast_loss () =
  let cluster = make_epoch_cluster () in
  let engine = Cluster.engine cluster in
  let fired = ref 0 and result = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:epoch_item ~delta:(-10) (fun r ->
      incr fired;
      result := Some r);
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 6.5) (fun () ->
         Cluster.set_drop_probability cluster 1.0));
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ms 7.5) (fun () ->
         Cluster.set_drop_probability cluster 0.));
  epoch_quiesce cluster;
  (match !result with
  | Some { Update.outcome = Update.Applied Update.Epoch; _ } -> ()
  | Some r -> Alcotest.failf "expected an epoch apply, got %a" Update.pp_result r
  | None -> Alcotest.fail "update never settled");
  Alcotest.(check int) "continuation fired exactly once" 1 !fired;
  Alcotest.(check int) "no takeover was needed" 0
    ((Site.metrics (Cluster.site cluster 2)).Update.Metrics.epoch_takeovers
    + (Site.metrics (Cluster.site cluster 0)).Update.Metrics.epoch_takeovers);
  assert_epoch_clean cluster ~amount:990

(* A subscriber cut off for two whole epochs catches up by pulling the
   gap: after the heal only the latest seal is pushed to it, so the
   earlier one must come back through a pull. Epochs 1 and 2 have
   sequencers 1 and 2, a quorum without site 0. *)
let test_epoch_gap_pulled () =
  let cluster = make_epoch_cluster () in
  let write () =
    Site.submit_update (Cluster.site cluster 1) ~item:epoch_item ~delta:(-10) (fun _ -> ())
  in
  Cluster.partition cluster 0 1;
  Cluster.partition cluster 0 2;
  write ();
  Cluster.run ~until:(Time.of_ms 100.) cluster;
  write ();
  Cluster.run ~until:(Time.of_ms 200.) cluster;
  Alcotest.(check (option int)) "site0 missed both seals" (Some 0)
    (Site.epoch_applied (Cluster.site cluster 0) ~item:epoch_item);
  Alcotest.(check (option int)) "site2 sealed both" (Some 2)
    (Site.epoch_applied (Cluster.site cluster 2) ~item:epoch_item);
  Cluster.heal cluster 0 1;
  Cluster.heal cluster 0 2;
  (* one push of the latest seal; a bounded run, since a subscriber
     stuck on a gap keeps its pump ticking *)
  Site.flush_epochs (Cluster.site cluster 2);
  Cluster.run ~until:(Time.of_ms 1000.) cluster;
  Alcotest.(check (option int)) "site0 caught up" (Some 2)
    (Site.epoch_applied (Cluster.site cluster 0) ~item:epoch_item);
  epoch_quiesce cluster;
  assert_epoch_clean cluster ~amount:980

(* A subscriber quarantined after losing its protocol log takes no part
   in epoch commit until repaired: it refuses the intents, commits and
   pulls' follow-ups aimed at it, so its untrusted row applies nothing,
   and the others seal without it. The repair then brings it level. *)
let test_epoch_quarantined_subscriber_applies_nothing () =
  let cluster = make_epoch_cluster () in
  let victim = Cluster.site cluster 2 in
  let write () =
    Site.submit_update (Cluster.site cluster 1) ~item:epoch_item ~delta:(-10) (fun _ -> ())
  in
  write ();
  Cluster.run ~until:(Time.of_ms 100.) cluster;
  Site.arm_disk_fault victim ~target:`Txn (Avdb_store.Disk_fault.Lost_segment { pos = 0. });
  Site.crash victim;
  Site.recover victim;
  Alcotest.(check bool) "quarantined" true (Site.is_quarantined victim ~item:epoch_item);
  let applied = Site.epoch_applied victim ~item:epoch_item in
  write ();
  Cluster.run ~until:(Time.of_ms 200.) cluster;
  Alcotest.(check (option int)) "site0 sealed epoch 2" (Some 2)
    (Site.epoch_applied (Cluster.site cluster 0) ~item:epoch_item);
  Alcotest.(check (option int)) "nothing applied while quarantined" applied
    (Site.epoch_applied victim ~item:epoch_item);
  epoch_quiesce cluster;
  check_no_quarantine cluster;
  assert_epoch_clean cluster ~amount:980

(* Above a snapshot floor the protocol log lacks the seals the installed
   row folded in, so a lost WAL row cannot be rebuilt from seals: a joiner
   that took its epoch state from a snapshot quarantines the item at
   recovery and repairs it from a donor instead. *)
let test_epoch_wal_loss_above_floor ~checkpoint () =
  let cluster = make_epoch_cluster () in
  let write site =
    Site.submit_update (Cluster.site cluster site) ~item:epoch_item ~delta:(-10) ignore
  in
  write 1;
  epoch_quiesce cluster;
  let joined = ref None in
  let j = Cluster.add_retailer cluster (fun (_, r) -> joined := Some r) in
  Cluster.run cluster;
  Alcotest.(check bool) "joined" true (!joined = Some (Ok ()));
  let joiner = Cluster.site cluster j in
  Alcotest.(check bool) "the joiner's log has a floor" true
    (Txn_log.epoch_floor (Site.txn_log joiner) ~item:epoch_item > 0);
  write j;
  epoch_quiesce cluster;
  arm_wal ~checkpoint joiner (Avdb_store.Disk_fault.Lost_segment { pos = 0. });
  Site.crash joiner;
  Site.recover joiner;
  Alcotest.(check bool) "quarantined, not rebuilt" true
    (Site.is_quarantined joiner ~item:epoch_item);
  epoch_quiesce cluster;
  Alcotest.(check bool) "repaired from a donor" true
    ((Site.metrics joiner).Update.Metrics.repairs >= 1);
  check_no_quarantine cluster;
  assert_epoch_clean cluster ~amount:980

(* One value per ballot. The epoch-1 sequencer (site 1) proposes at
   ballot 0 and site 0 accepts, but the vote is lost and the round fails;
   a second intent arrives before the retry. The retry, still at ballot
   0, must carry the value site 0 already holds, not the grown buffer, or
   two acceptors would hold different values for one ballot. *)
let test_epoch_ballot0_retry_keeps_value () =
  let cluster = make_epoch_cluster () in
  let engine = Cluster.engine cluster in
  let at ms f = ignore (Engine.schedule_at engine ~at:(Time.of_ms ms) f) in
  let write () =
    Site.submit_update (Cluster.site cluster 1) ~item:epoch_item ~delta:(-10) (fun _ -> ())
  in
  let log i = Site.txn_log (Cluster.site cluster i) in
  Cluster.partition cluster 1 2;
  write ();
  at 6.5 (fun () -> Cluster.partition cluster 0 1);
  at 50. write;
  at 60. (fun () -> Cluster.heal cluster 1 2);
  Cluster.run ~until:(Time.of_ms 300.) cluster;
  (match
     ( Txn_log.epoch_accept (log 0) ~item:epoch_item ~epoch:1,
       Txn_log.epoch_seal (log 1) ~item:epoch_item ~epoch:1 )
   with
  | Some (0, accepted), Some sealed ->
      Alcotest.(check int) "one intent in the first value" 1 (List.length accepted);
      Alcotest.(check bool) "sealed the value site 0 accepted" true (accepted = sealed)
  | _ -> Alcotest.fail "expected a ballot-0 accept at site 0 and a seal at site 1");
  Cluster.heal cluster 0 1;
  epoch_quiesce cluster;
  assert_epoch_clean cluster ~amount:980

let suites =
  [
    ( "core.crash-matrix",
      [
        Alcotest.test_case "coordinator crash before prepare" `Quick
          test_coordinator_crash_before_prepare;
        Alcotest.test_case "coordinator crash after prepares" `Quick
          test_coordinator_crash_after_prepares;
        Alcotest.test_case "coordinator crash after commit logged" `Quick
          test_coordinator_crash_after_commit_logged;
        Alcotest.test_case "coordinator crash after completion" `Quick
          test_coordinator_crash_after_completion;
        Alcotest.test_case "participant crash in doubt" `Quick
          test_participant_crash_in_doubt;
        Alcotest.test_case "coordinator crash with partial votes" `Quick
          test_coordinator_crash_partial_votes;
        Alcotest.test_case "storage: WAL torn tail" `Quick (test_storage_wal_torn_tail ~checkpoint:false);
        Alcotest.test_case "storage: WAL torn tail, checkpointed" `Quick (test_storage_wal_torn_tail ~checkpoint:true);
        Alcotest.test_case "storage: WAL lost fsync, local rebuild" `Quick (test_storage_wal_lost_fsync_rebuild ~checkpoint:false);
        Alcotest.test_case "storage: WAL lost fsync, local rebuild, checkpointed" `Quick (test_storage_wal_lost_fsync_rebuild ~checkpoint:true);
        Alcotest.test_case "storage: WAL bit flip at participant" `Quick (test_storage_wal_bit_flip ~checkpoint:false);
        Alcotest.test_case "storage: WAL bit flip at participant, checkpointed" `Quick (test_storage_wal_bit_flip ~checkpoint:true);
        Alcotest.test_case "storage: WAL misdirect at base" `Quick (test_storage_wal_misdirect_at_base ~checkpoint:false);
        Alcotest.test_case "storage: WAL misdirect at base, checkpointed" `Quick (test_storage_wal_misdirect_at_base ~checkpoint:true);
        Alcotest.test_case "storage: txn-log segment loss, repair" `Quick
          test_storage_txn_log_lost_segment;
        Alcotest.test_case "storage: coordinator loses its outcome" `Quick
          test_storage_coordinator_loses_outcome;
        Alcotest.test_case "storage: coordinator amnesia adjudication" `Quick
          test_storage_coordinator_amnesia_adjudication;
        Alcotest.test_case "storage: WAL lost segment under sealed epochs" `Quick
          test_storage_wal_lost_segment_epoch;
        Alcotest.test_case "epoch: writer crash after intent logged" `Quick
          test_epoch_writer_crash_after_intent;
        Alcotest.test_case "epoch: sequencer crash before seal" `Quick
          test_epoch_sequencer_crash_before_seal;
        Alcotest.test_case "epoch: sequencer crash after seal" `Quick
          test_epoch_sequencer_crash_after_seal;
        Alcotest.test_case "epoch: takeover adopts accepted value" `Quick
          test_epoch_takeover_adopts_accepted_value;
        Alcotest.test_case "epoch: a two-epoch gap is pulled" `Quick test_epoch_gap_pulled;
        Alcotest.test_case "epoch: quarantined subscriber applies nothing" `Quick
          test_epoch_quarantined_subscriber_applies_nothing;
        Alcotest.test_case "epoch: WAL loss above a snapshot floor repairs" `Quick (test_epoch_wal_loss_above_floor ~checkpoint:false);
        Alcotest.test_case "epoch: WAL loss above a snapshot floor repairs, checkpointed" `Quick (test_epoch_wal_loss_above_floor ~checkpoint:true);
        Alcotest.test_case "epoch: a ballot-0 retry keeps its value" `Quick
          test_epoch_ballot0_retry_keeps_value;
        Alcotest.test_case "epoch: seal broadcast loss" `Quick
          test_epoch_seal_broadcast_loss;
      ] );
  ]
