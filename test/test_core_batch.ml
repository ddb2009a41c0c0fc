open Avdb_core
open Avdb_av

let config ?(prefetch_low = None) () =
  {
    Config.default with
    Config.products =
      [
        Product.regular "a" ~initial_amount:90;
        Product.regular "b" ~initial_amount:90;
        Product.regular "c" ~initial_amount:90;
        Product.non_regular "special" ~initial_amount:10;
      ];
    prefetch_low;
    seed = 13;
  }

let make ?prefetch_low () = Cluster.create (config ?prefetch_low ())

let submit_batch cluster site_index ~deltas =
  let result = ref None in
  Site.submit_batch (Cluster.site cluster site_index) ~deltas (fun r -> result := Some r);
  Cluster.run cluster;
  match !result with Some r -> r | None -> Alcotest.fail "batch never completed"

let amount cluster site item =
  Option.value ~default:min_int (Site.amount_of (Cluster.site cluster site) ~item)

(* Even split of 90 over 3 sites: every site starts with AV 30 per item. *)

let test_local_batch_atomic () =
  let cluster = make () in
  let result = submit_batch cluster 1 ~deltas:[ ("a", -10); ("b", -20); ("c", 5) ] in
  (match result.Update.outcome with
  | Update.Applied Update.Local -> ()
  | _ -> Alcotest.failf "expected local batch, got %a" Update.pp_result result);
  Alcotest.(check int) "a updated" 80 (amount cluster 1 "a");
  Alcotest.(check int) "b updated" 70 (amount cluster 1 "b");
  Alcotest.(check int) "c updated" 95 (amount cluster 1 "c");
  let av item = Av_table.available (Site.av_table (Cluster.site cluster 1)) ~item in
  Alcotest.(check int) "a AV consumed" 20 (av "a");
  Alcotest.(check int) "b AV consumed" 10 (av "b");
  Alcotest.(check int) "c AV minted" 35 (av "c");
  Alcotest.(check int) "no messages" 0 (Cluster.total_correspondences cluster)

let test_batch_with_transfer () =
  let cluster = make () in
  let result = submit_batch cluster 1 ~deltas:[ ("a", -50); ("b", -5) ] in
  (match result.Update.outcome with
  | Update.Applied (Update.With_transfer rounds) when rounds >= 1 -> ()
  | _ -> Alcotest.failf "expected transfer batch, got %a" Update.pp_result result);
  Alcotest.(check int) "a applied" 40 (amount cluster 1 "a");
  Alcotest.(check int) "b applied" 85 (amount cluster 1 "b");
  Alcotest.(check int) "a AV conserved globally" 40 (Cluster.av_sum cluster ~item:"a")

let test_batch_failure_applies_nothing () =
  let cluster = make () in
  (* "b" demand exceeds system AV (90): must fail after "a" already
     acquired; "a" must be rolled back untouched. *)
  let result = submit_batch cluster 2 ~deltas:[ ("a", -40); ("b", -200) ] in
  (match result.Update.outcome with
  | Update.Rejected Update.Av_exhausted -> ()
  | _ -> Alcotest.failf "expected Av_exhausted, got %a" Update.pp_result result);
  Alcotest.(check int) "a untouched" 90 (amount cluster 2 "a");
  Alcotest.(check int) "b untouched" 90 (amount cluster 2 "b");
  let av2 = Site.av_table (Cluster.site cluster 2) in
  Alcotest.(check int) "no AV held afterwards on a" 0 (Av_table.held av2 ~item:"a");
  Alcotest.(check int) "no AV held afterwards on b" 0 (Av_table.held av2 ~item:"b");
  Alcotest.(check int) "a AV conserved" 90 (Cluster.av_sum cluster ~item:"a");
  Alcotest.(check int) "b AV conserved" 90 (Cluster.av_sum cluster ~item:"b")

let test_batch_coalesces_duplicates () =
  let cluster = make () in
  let result = submit_batch cluster 1 ~deltas:[ ("a", -10); ("a", -5); ("a", 3) ] in
  Alcotest.(check bool) "applied" true (Update.is_applied result);
  Alcotest.(check int) "net -12" 78 (amount cluster 1 "a");
  (* A fully cancelling pair is a no-op. *)
  let result2 = submit_batch cluster 1 ~deltas:[ ("b", -7); ("b", 7) ] in
  Alcotest.(check bool) "no-op applied" true (Update.is_applied result2);
  Alcotest.(check int) "b unchanged" 90 (amount cluster 1 "b")

let test_batch_validation () =
  let cluster = make () in
  let r1 = submit_batch cluster 1 ~deltas:[ ("a", -1); ("nope", -1) ] in
  (match r1.Update.outcome with
  | Update.Rejected (Update.Unknown_item "nope") -> ()
  | _ -> Alcotest.failf "expected Unknown_item, got %a" Update.pp_result r1);
  let r2 = submit_batch cluster 1 ~deltas:[ ("a", -1); ("special", -1) ] in
  (match r2.Update.outcome with
  | Update.Rejected (Update.Not_regular "special") -> ()
  | _ -> Alcotest.failf "expected Not_regular, got %a" Update.pp_result r2);
  Alcotest.(check int) "nothing applied" 90 (amount cluster 1 "a")

let test_batch_empty () =
  let cluster = make () in
  let result = submit_batch cluster 1 ~deltas:[] in
  match result.Update.outcome with
  | Update.Applied Update.Local -> ()
  | _ -> Alcotest.failf "empty batch should be a trivial apply, got %a" Update.pp_result result

let test_batch_rejected_in_centralized_mode () =
  let cluster = Cluster.create { (config ()) with Config.mode = Config.Centralized } in
  let result = submit_batch cluster 1 ~deltas:[ ("a", -1) ] in
  match result.Update.outcome with
  | Update.Rejected Update.Unreachable -> ()
  | _ -> Alcotest.failf "expected Unreachable, got %a" Update.pp_result result

let test_batch_convergence () =
  let cluster = Cluster.create { (config ()) with Config.sync_interval = Some (Avdb_sim.Time.of_ms 10.) } in
  ignore (submit_batch cluster 1 ~deltas:[ ("a", -10); ("b", -10) ]);
  ignore (submit_batch cluster 2 ~deltas:[ ("a", -5); ("c", 8) ]);
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (list int)) "a converges" [ 75; 75; 75 ] (Cluster.replica_amounts cluster ~item:"a");
  Alcotest.(check (list int)) "b converges" [ 80; 80; 80 ] (Cluster.replica_amounts cluster ~item:"b");
  Alcotest.(check (list int)) "c converges" [ 98; 98; 98 ] (Cluster.replica_amounts cluster ~item:"c");
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- prefetch --- *)

let test_prefetch_refills_below_watermark () =
  let cluster = make ~prefetch_low:(Some 15) () in
  let site1 = Cluster.site cluster 1 in
  (* Drain below the watermark (30 - 20 = 10 < 15): a background refill
     should bring available back to >= 15 (target 30). *)
  Site.submit_update site1 ~item:"a" ~delta:(-20) (fun _ -> ());
  Cluster.run cluster;
  let m = Site.metrics site1 in
  Alcotest.(check bool) "prefetch fired" true (m.Update.Metrics.prefetch_requests >= 1);
  Alcotest.(check bool) "refilled above watermark" true
    (Av_table.available (Site.av_table site1) ~item:"a" >= 15);
  (* 90 initial - 20 consumed: prefetch only moved volume, never minted. *)
  Alcotest.(check int) "conservation intact" 70 (Cluster.av_sum cluster ~item:"a")

let test_prefetch_idle_above_watermark () =
  let cluster = make ~prefetch_low:(Some 5) () in
  let site1 = Cluster.site cluster 1 in
  Site.submit_update site1 ~item:"a" ~delta:(-10) (fun _ -> ());
  Cluster.run cluster;
  Alcotest.(check int) "no prefetch needed" 0
    (Site.metrics site1).Update.Metrics.prefetch_requests;
  Alcotest.(check int) "no messages at all" 0 (Cluster.total_correspondences cluster)

let test_crash_abandons_refill () =
  let cluster = make ~prefetch_low:(Some 15) () in
  let site1 = Cluster.site cluster 1 in
  let m = Site.metrics site1 in
  (* 30 - 20 = 10 < 15: the local commit sends a refill at once. *)
  Site.submit_update site1 ~item:"a" ~delta:(-20) (fun _ -> ());
  Alcotest.(check int) "a refill in flight" 1 m.Update.Metrics.prefetch_requests;
  (* The grant reply reaches the next incarnation, which ignores it: the
     crash must not leave the item flagged as refilling. *)
  Site.crash site1;
  Site.recover site1;
  Cluster.run cluster;
  Site.submit_update site1 ~item:"a" ~delta:(-1) (fun _ -> ());
  Cluster.run cluster;
  Alcotest.(check int) "a second refill" 2 m.Update.Metrics.prefetch_requests

let test_prefetch_keeps_invariants_under_load () =
  let cluster = Cluster.create { (config ~prefetch_low:(Some 10) ()) with Config.sync_interval = Some (Avdb_sim.Time.of_ms 20.) } in
  let items = [| "a"; "b"; "c" |] in
  for i = 0 to 99 do
    let site = 1 + (i mod 2) in
    let item = items.(i mod 3) in
    let delta = if i mod 5 = 0 then 4 else -3 in
    Site.submit_update (Cluster.site cluster site) ~item ~delta (fun _ -> ())
  done;
  (* The maker restocks so AV keeps existing. *)
  for i = 0 to 29 do
    Site.submit_update (Cluster.site cluster 0) ~item:items.(i mod 3) ~delta:6 (fun _ -> ())
  done;
  Cluster.run cluster;
  Cluster.flush_all_syncs cluster;
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suites =
  [
    ( "core.batch_update",
      [
        Alcotest.test_case "local batch atomic" `Quick test_local_batch_atomic;
        Alcotest.test_case "batch with transfer" `Quick test_batch_with_transfer;
        Alcotest.test_case "failure applies nothing" `Quick test_batch_failure_applies_nothing;
        Alcotest.test_case "coalesces duplicates" `Quick test_batch_coalesces_duplicates;
        Alcotest.test_case "validation" `Quick test_batch_validation;
        Alcotest.test_case "empty batch" `Quick test_batch_empty;
        Alcotest.test_case "rejected in centralized mode" `Quick test_batch_rejected_in_centralized_mode;
        Alcotest.test_case "convergence" `Quick test_batch_convergence;
      ] );
    ( "core.prefetch",
      [
        Alcotest.test_case "refills below watermark" `Quick test_prefetch_refills_below_watermark;
        Alcotest.test_case "idle above watermark" `Quick test_prefetch_idle_above_watermark;
        Alcotest.test_case "invariants under load" `Quick test_prefetch_keeps_invariants_under_load;
        Alcotest.test_case "a crash abandons an in-flight refill" `Quick test_crash_abandons_refill;
      ] );
  ]
