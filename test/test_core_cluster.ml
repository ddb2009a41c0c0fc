open Avdb_sim
open Avdb_core
open Avdb_store
open Avdb_av
open Avdb_workload

let config ?(n_sites = 3) ?(mode = Config.Autonomous) ?(allocation = Config.Even)
    ?(n_items = 10) () =
  {
    Config.default with
    Config.n_sites;
    mode;
    allocation;
    products = Product.catalogue ~n_regular:n_items ~n_non_regular:0 ~initial_amount:100;
    seed = 5;
  }

(* --- construction and allocation --- *)

let test_initial_state () =
  let cluster = Cluster.create (config ()) in
  Alcotest.(check int) "n sites" 3 (Cluster.n_sites cluster);
  Alcotest.(check bool) "site 0 is maker" true (Site.role (Cluster.site cluster 0) = Site.Maker);
  Alcotest.(check bool) "site 1 is retailer" true
    (Site.role (Cluster.site cluster 1) = Site.Retailer);
  Alcotest.(check (list int)) "replicas initialised from base" [ 100; 100; 100 ]
    (Cluster.replica_amounts cluster ~item:"product0");
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_allocation_even () =
  let cluster = Cluster.create (config ~allocation:Config.Even ()) in
  let avail i = Av_table.available (Site.av_table (Cluster.site cluster i)) ~item:"product0" in
  Alcotest.(check int) "base gets remainder" 34 (avail 0);
  Alcotest.(check int) "retailer share" 33 (avail 1);
  Alcotest.(check int) "sum is initial" 100 (Cluster.av_sum cluster ~item:"product0")

let test_allocation_all_at_base () =
  let cluster = Cluster.create (config ~allocation:Config.All_at_base ()) in
  let avail i = Av_table.available (Site.av_table (Cluster.site cluster i)) ~item:"product0" in
  Alcotest.(check int) "base holds all" 100 (avail 0);
  Alcotest.(check int) "retailers empty" 0 (avail 1)

let test_allocation_retailers_only () =
  let cluster = Cluster.create (config ~allocation:Config.Retailers_only ()) in
  let avail i = Av_table.available (Site.av_table (Cluster.site cluster i)) ~item:"product0" in
  Alcotest.(check int) "base empty" 0 (avail 0);
  Alcotest.(check int) "first retailer remainder" 50 (avail 1);
  Alcotest.(check int) "second retailer share" 50 (avail 2);
  Alcotest.(check int) "sum is initial" 100 (Cluster.av_sum cluster ~item:"product0")

let test_invalid_config_rejected () =
  match Cluster.create { (config ()) with Config.n_sites = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n_sites=0 accepted"

let test_centralized_mode_has_no_av () =
  let cluster = Cluster.create (config ~mode:Config.Centralized ()) in
  Alcotest.(check (list string)) "no AV entries" []
    (Av_table.items (Site.av_table (Cluster.site cluster 1)))

(* --- runner / fig6 behaviour --- *)

let run_scm ~mode ~total =
  let cfg = { (config ~n_items:100 ()) with Config.mode } in
  let cluster = Cluster.create cfg in
  let wl = Scm.create (Scm.paper_spec ()) ~seed:17 in
  let outcome =
    Runner.run cluster ~nth_update:(Scm.generator wl) ~total_updates:total
      ~checkpoint_every:(total / 5) ()
  in
  (cluster, outcome)

let test_runner_checkpoints () =
  let _, outcome = run_scm ~mode:Config.Autonomous ~total:500 in
  Alcotest.(check int) "five checkpoints" 5 (List.length outcome.Runner.checkpoints);
  Alcotest.(check (list int)) "at multiples of 100" [ 100; 200; 300; 400; 500 ]
    (List.map (fun c -> c.Runner.updates_done) outcome.Runner.checkpoints);
  Alcotest.(check int) "all updates settle" 500 outcome.Runner.final.Runner.updates_done;
  Alcotest.(check int) "every update tallied" 500
    (outcome.Runner.final.Runner.applied + outcome.Runner.final.Runner.rejected);
  (* Correspondences are monotone across checkpoints. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Runner.total_correspondences <= b.Runner.total_correspondences && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone correspondences" true (monotone outcome.Runner.checkpoints)

(* A run keeps what the simulated system must keep and nothing per
   update: on the delay-firehose shape (every update a local Delay commit)
   each replica checkpoints its own WAL, so the live heap a run leaves
   behind does not grow with its length. Without the checkpoint the logs
   alone grow by about 10 words per update; keeping every
   [Update.result] as well adds about 7. *)
let retained_words n =
  let cfg =
    {
      Config.default with
      Config.n_sites = 3;
      products = Product.catalogue ~n_regular:8 ~n_non_regular:0 ~initial_amount:1_000_000_000;
      sync_interval = None;
      tracing = false;
      seed = 5;
    }
  in
  let cluster = Cluster.create cfg in
  let rng = Rng.create 9 in
  let items = Array.init 8 (fun i -> "product" ^ string_of_int i) in
  let nth_update _ =
    let site = Rng.int rng 3 in
    let item = items.(Rng.int rng 8) in
    let size = 1 + Rng.int rng 10 in
    (site, item, if site = 0 then size else -size)
  in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let outcome = Runner.run cluster ~nth_update ~total_updates:n () in
  Gc.compact ();
  let after = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity (cluster, outcome));
  Alcotest.(check int) "every update applied" n outcome.Runner.final.Runner.applied;
  after - before

(* A run ends wherever each site's log is in its checkpoint cycle, so the
   two lengths may differ by up to one cycle per site: 1,024 records
   between snapshots (this catalogue's snapshot is 11 records, under the
   floor) at about 12 words each, about 37,000 words over three sites.
   Without the checkpoint the longer run retains about 610,000 more. *)
let test_runner_retention () =
  let short = retained_words 20_000 in
  let long = retained_words 80_000 in
  if long - short > 40_000 then
    Alcotest.failf
      "a run of 80,000 updates retains %d live words, one of 20,000 %d (at most 40,000 more)"
      long short

let test_fig6_shape () =
  (* The headline claim: proposed cuts correspondences well below the
     centralized baseline (paper: ~75%). *)
  let _, autonomous = run_scm ~mode:Config.Autonomous ~total:1500 in
  let _, central = run_scm ~mode:Config.Centralized ~total:1500 in
  let a = autonomous.Runner.final.Runner.total_correspondences in
  let c = central.Runner.final.Runner.total_correspondences in
  Alcotest.(check int) "centralized = one correspondence per retailer update" 1000 c;
  Alcotest.(check bool) "proposed below half of conventional" true (a * 2 < c);
  Alcotest.(check bool) "most updates complete locally" true
    (a * 4 < 1500)

let test_table1_fairness () =
  let _, outcome = run_scm ~mode:Config.Autonomous ~total:1500 in
  let per_site = outcome.Runner.final.Runner.per_site_correspondences in
  let corr i = try List.assoc i per_site with Not_found -> 0 in
  Alcotest.(check int) "maker needs no transfers" 0 (corr 0);
  let r1 = corr 1 and r2 = corr 2 in
  Alcotest.(check bool) "retailers both active" true (r1 > 0 && r2 > 0);
  let ratio = float_of_int (max r1 r2) /. float_of_int (max 1 (min r1 r2)) in
  Alcotest.(check bool) "retailer fairness within 1.5x" true (ratio < 1.5)

let test_runner_applies_everything_when_feasible () =
  (* Maker +20% vs retailers -10% each: production matches demand in
     expectation, so with warm-up stock rejections are rare. *)
  let _, outcome = run_scm ~mode:Config.Autonomous ~total:900 in
  Alcotest.(check bool) "at least 95% applied" true
    (outcome.Runner.final.Runner.applied * 100 >= 95 * 900)


let test_runner_argument_validation () =
  let cluster = Cluster.create (config ()) in
  let nth_update _ = (0, "product0", 1) in
  (match Runner.run cluster ~nth_update ~total_updates:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative total accepted");
  (match Runner.run cluster ~nth_update ~total_updates:10 ~checkpoint_every:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero checkpoint accepted");
  (* zero updates is fine and produces an empty outcome *)
  let outcome = Runner.run cluster ~nth_update ~total_updates:0 () in
  Alcotest.(check int) "no updates" 0 outcome.Runner.final.Runner.updates_done;
  Alcotest.(check (list int)) "no checkpoints" []
    (List.map (fun c -> c.Runner.updates_done) outcome.Runner.checkpoints)

(* --- fault tolerance --- *)

let test_crash_leaves_survivors_working () =
  let cluster = Cluster.create (config ()) in
  Site.crash (Cluster.site cluster 2);
  Alcotest.(check bool) "down" true (Site.is_down (Cluster.site cluster 2));
  (* Site 1 keeps updating autonomously within its AV. *)
  let result = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:"product0" ~delta:(-10) (fun r ->
      result := Some r);
  Cluster.run cluster;
  (match !result with
  | Some r when Update.is_applied r -> ()
  | _ -> Alcotest.fail "survivor blocked by crash");
  (* Submissions at the crashed site are rejected. *)
  let crashed_result = ref None in
  Site.submit_update (Cluster.site cluster 2) ~item:"product0" ~delta:(-1) (fun r ->
      crashed_result := Some r);
  Cluster.run cluster;
  match !crashed_result with
  | Some { Update.outcome = Update.Rejected Update.Unreachable; _ } -> ()
  | _ -> Alcotest.fail "crashed site accepted an update"

let test_crash_skips_dead_donor () =
  (* All AV at base; base down; retailer must fail over to the other
     retailer (which has nothing) and reject - but critically, terminate. *)
  let cluster = Cluster.create (config ~allocation:Config.All_at_base ()) in
  Site.crash (Cluster.site cluster 0);
  let result = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:"product0" ~delta:(-10) (fun r ->
      result := Some r);
  Cluster.run cluster;
  match !result with
  | Some { Update.outcome = Update.Rejected Update.Av_exhausted; _ } -> ()
  | Some r -> Alcotest.failf "expected Av_exhausted, got %a" Update.pp_result r
  | None -> Alcotest.fail "update hung on dead donor"

let test_recovery_restores_committed_state () =
  let cluster = Cluster.create (config ()) in
  let site1 = Cluster.site cluster 1 in
  let result = ref None in
  Site.submit_update site1 ~item:"product0" ~delta:(-25) (fun r -> result := Some r);
  Cluster.run cluster;
  Alcotest.(check bool) "applied before crash" true
    (match !result with Some r -> Update.is_applied r | None -> false);
  Site.crash site1;
  Site.recover site1;
  Alcotest.(check bool) "back up" false (Site.is_down site1);
  Alcotest.(check (option int)) "WAL recovery preserves committed update" (Some 75)
    (Site.amount_of site1 ~item:"product0");
  (* And the recovered site keeps working. *)
  let result2 = ref None in
  Site.submit_update site1 ~item:"product0" ~delta:(-5) (fun r -> result2 := Some r);
  Cluster.run cluster;
  Alcotest.(check bool) "works after recovery" true
    (match !result2 with Some r -> Update.is_applied r | None -> false)

let test_recovery_drops_uncommitted () =
  (* Open a raw storage transaction at the site and crash: recovery must
     drop it (committed-only replay). *)
  let cluster = Cluster.create (config ()) in
  let site1 = Cluster.site cluster 1 in
  let db = Site.database site1 in
  let txn = Database.begin_txn db in
  (match Database.add_int txn ~table:Site.stock_table ~key:"product0" ~col:"amount" (-99) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* no commit - crash now *)
  Site.crash site1;
  Site.recover site1;
  Alcotest.(check (option int)) "uncommitted change dropped" (Some 100)
    (Site.amount_of site1 ~item:"product0")

(* A weak pointer made in a frame of its own, so that no register or
   stack slot of the caller keeps the value alive. *)
let[@inline never] weak_of v =
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  w

(* The WAL's last write to a stock row. *)
let last_stock_write wal =
  let rec from i =
    match Wal.nth wal i with
    | (Wal.Apply { table; _ } | Wal.Update { table; _ }) as r when table = Site.stock_table -> r
    | _ -> from (i - 1)
  in
  from (Wal.length wal - 1)

(* A site's per-item records outlive a crash; its database does not. The
   site writes items "x" and "y" through one write path ([kind]) before
   the crash, so "y"'s record still holds its pre-crash row handle after
   recovery, and no handle may keep the replaced database or its log
   alive. The next write to "x" must show in its amount and be the
   recovered WAL's last stock write. *)
let write_after_recovery ?(mode = Config.Autonomous) ?(site = 1) product kind () =
  let cluster =
    Cluster.create
      {
        (config ~mode ()) with
        Config.products = [ product "x" ~initial_amount:100; product "y" ~initial_amount:100 ];
        sync_interval = None;
      }
  in
  let s = Cluster.site cluster site in
  let submit item delta =
    let result = ref None in
    Site.submit_update s ~item ~delta (fun r -> result := Some r);
    Cluster.run cluster;
    match !result with
    | Some { Update.outcome = Update.Applied k; _ } when k = kind -> ()
    | Some r -> Alcotest.failf "expected %a, got %a" Update.pp_kind kind Update.pp_result r
    | None -> Alcotest.fail "update never completed"
  in
  submit "x" (-10);
  submit "y" (-10);
  let before_crash = weak_of (Site.database s) in
  Site.crash s;
  Site.recover s;
  Gc.full_major ();
  Alcotest.(check bool) "the pre-crash database is unreachable" true
    (Option.is_none (Weak.get before_crash 0));
  submit "x" (-5);
  Alcotest.(check (option int)) "the amount shows the update" (Some 85)
    (Site.amount_of s ~item:"x");
  match last_stock_write (Database.wal (Site.database s)) with
  | Wal.Apply { key = "x"; after = Value.Int 85; _ } | Wal.Update { key = "x"; after = Value.Int 85; _ }
    ->
      ()
  | r -> Alcotest.failf "the recovered WAL's last stock write is %a" Wal.pp_record r

(* --- correspondences under message loss --- *)


let test_downtime_catchup_via_counters () =
  (* A site misses syncs while down; because notices carry cumulative
     counters, the first flush after recovery replays everything it
     missed - no per-message reliability needed. *)
  let cfg = { (config ()) with Config.sync_interval = Some (Time.of_ms 20.) } in
  let cluster = Cluster.create cfg in
  Site.crash (Cluster.site cluster 2);
  ignore
    (let r = ref None in
     Site.submit_update (Cluster.site cluster 1) ~item:"product0" ~delta:(-12) (fun x ->
         r := Some x);
     r);
  ignore
    (let r = ref None in
     Site.submit_update (Cluster.site cluster 0) ~item:"product0" ~delta:7 (fun x ->
         r := Some x);
     r);
  Cluster.run cluster;
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (option int)) "down site missed everything" (Some 100)
    (Site.amount_of (Cluster.site cluster 2) ~item:"product0");
  Site.recover (Cluster.site cluster 2);
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (list int)) "caught up after recovery" [ 95; 95; 95 ]
    (Cluster.replica_amounts cluster ~item:"product0");
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_lossy_network_still_settles () =
  let cfg = { (config ()) with Config.drop_probability = 0.2; Config.rpc_timeout = Time.of_ms 30. } in
  let cluster = Cluster.create cfg in
  let settled = ref 0 in
  for i = 0 to 59 do
    let site = 1 + (i mod 2) in
    Site.submit_update (Cluster.site cluster site) ~item:"product0" ~delta:(-2) (fun _ ->
        incr settled)
  done;
  Cluster.run cluster;
  Alcotest.(check int) "every update settles despite loss" 60 !settled


let test_partition_heals_and_converges () =
  (* Cut a retailer off from everyone; it keeps selling from local AV.
     After healing, lazy sync reconciles all replicas (deltas commute). *)
  let cfg = { (config ()) with Config.sync_interval = Some (Time.of_ms 20.) } in
  let cluster = Cluster.create cfg in
  Cluster.partition cluster 2 0;
  Cluster.partition cluster 2 1;
  let isolated = ref None and connected = ref None in
  Site.submit_update (Cluster.site cluster 2) ~item:"product0" ~delta:(-15) (fun r ->
      isolated := Some r);
  Site.submit_update (Cluster.site cluster 1) ~item:"product0" ~delta:(-10) (fun r ->
      connected := Some r);
  Cluster.run cluster;
  Alcotest.(check bool) "isolated site applied locally" true
    (match !isolated with Some r -> Update.is_applied r | None -> false);
  Alcotest.(check bool) "connected site applied" true
    (match !connected with Some r -> Update.is_applied r | None -> false);
  (* During the partition the isolated site's deltas cannot propagate. *)
  Alcotest.(check (option int)) "base missed the isolated delta" (Some 90)
    (Site.amount_of (Cluster.site cluster 0) ~item:"product0");
  Cluster.heal cluster 2 0;
  Cluster.heal cluster 2 1;
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (list int)) "replicas converge after healing" [ 75; 75; 75 ]
    (Cluster.replica_amounts cluster ~item:"product0");
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_determinism_under_loss () =
  (* Identical seeds with a lossy network give bit-identical outcomes. *)
  let digest () =
    let cfg =
      { (config ()) with Config.drop_probability = 0.15; Config.rpc_timeout = Time.of_ms 20. }
    in
    let cluster = Cluster.create cfg in
    let wl = Scm.create (Scm.paper_spec ~n_items:10 ()) ~seed:5 in
    let outcome = Runner.run cluster ~nth_update:(Scm.generator wl) ~total_updates:400 () in
    ( outcome.Runner.final.Runner.applied,
      outcome.Runner.final.Runner.rejected,
      Cluster.total_correspondences cluster,
      Avdb_net.Stats.total_dropped (Cluster.net_stats cluster) )
  in
  let a = digest () and b = digest () in
  Alcotest.(check bool) "identical under loss" true (a = b)


let test_lossy_sync_eventually_converges () =
  (* Notices are fire-and-forget and 30% get dropped, but the cumulative
     counters make propagation self-healing: repeated flushes converge. *)
  let cfg =
    {
      (config ()) with
      Config.drop_probability = 0.3;
      Config.rpc_timeout = Time.of_ms 20.;
      Config.sync_interval = Some (Time.of_ms 20.);
    }
  in
  let cluster = Cluster.create cfg in
  for i = 0 to 29 do
    let site = i mod 3 in
    let delta = if site = 0 then 6 else -3 in
    Site.submit_update (Cluster.site cluster site) ~item:"product0" ~delta (fun _ -> ())
  done;
  Cluster.run cluster;
  let converged () =
    match Cluster.replica_amounts cluster ~item:"product0" with
    | first :: rest -> List.for_all (( = ) first) rest
    | [] -> false
  in
  let attempts = ref 0 in
  while (not (converged ())) && !attempts < 20 do
    incr attempts;
    Cluster.flush_all_syncs cluster
  done;
  Alcotest.(check bool) "converged despite loss" true (converged ())


let suites =
  [
    ( "core.cluster",
      [
        Alcotest.test_case "initial state" `Quick test_initial_state;
        Alcotest.test_case "allocation even" `Quick test_allocation_even;
        Alcotest.test_case "allocation all-at-base" `Quick test_allocation_all_at_base;
        Alcotest.test_case "allocation retailers-only" `Quick test_allocation_retailers_only;
        Alcotest.test_case "invalid config rejected" `Quick test_invalid_config_rejected;
        Alcotest.test_case "centralized has no AV" `Quick test_centralized_mode_has_no_av;
      ] );
    ( "core.runner",
      [
        Alcotest.test_case "checkpoints" `Quick test_runner_checkpoints;
        Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
        Alcotest.test_case "table1 fairness" `Slow test_table1_fairness;
        Alcotest.test_case "high apply rate" `Slow test_runner_applies_everything_when_feasible;
        Alcotest.test_case "argument validation" `Quick test_runner_argument_validation;
        Alcotest.test_case "keeps nothing per update" `Quick test_runner_retention;
      ] );
    ( "core.faults",
      [
        Alcotest.test_case "survivors keep working" `Quick test_crash_leaves_survivors_working;
        Alcotest.test_case "dead donor skipped" `Quick test_crash_skips_dead_donor;
        Alcotest.test_case "recovery restores committed" `Quick test_recovery_restores_committed_state;
        Alcotest.test_case "recovery drops uncommitted" `Quick test_recovery_drops_uncommitted;
        Alcotest.test_case "lossy network settles" `Quick test_lossy_network_still_settles;
        Alcotest.test_case "partition heals and converges" `Quick test_partition_heals_and_converges;
        Alcotest.test_case "determinism under loss" `Quick test_determinism_under_loss;
        Alcotest.test_case "lossy sync eventually converges" `Quick test_lossy_sync_eventually_converges;
        Alcotest.test_case "downtime catch-up via counters" `Quick test_downtime_catchup_via_counters;
        Alcotest.test_case "delay update after recovery" `Quick
          (write_after_recovery Product.regular Update.Local);
        Alcotest.test_case "immediate update after recovery" `Quick
          (write_after_recovery Product.non_regular Update.Immediate);
        Alcotest.test_case "epoch update after recovery" `Quick
          (write_after_recovery Product.epoch Update.Epoch);
        Alcotest.test_case "centralized update after recovery" `Quick
          (write_after_recovery ~mode:Config.Centralized ~site:0 Product.regular Update.Central);
      ] );
  ]
