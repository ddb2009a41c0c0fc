(* The sharded engine end-to-end. The pins, in order: placement is a
   balanced deterministic partition; on one shard the sequential runner
   and the parallel runner replay each other byte for byte, and the
   straight-through engine run equals the windowed one; same-seed
   multi-domain runs are byte-identical to each other (state, spans,
   samples); a retailer joins a two-shard system across the shard
   boundary; a cross-shard flush made between runs is delivered; a parallel run passes the consistency oracle on its merged
   per-shard histories; and the nemesis drives crashes, partitions and
   network faults through the parallel engine deterministically. *)

open Avdb_sim
open Avdb_core
open Avdb_workload

let item_names products = List.map (fun p -> p.Product.name) products

let scm_spec config =
  {
    Scm.n_sites = config.Config.n_sites;
    items =
      Array.of_list
        (List.map
           (fun p -> (p.Product.name, p.Product.initial_amount))
           config.Config.products);
    maker_increase_pct = 0.2;
    retailer_decrease_pct = 0.1;
    item_skew = 0.;
    maker_weight = 1;
  }

let sharded_wl config topology ~seed =
  let subscribers item =
    let base = Topology.base_index topology ~item in
    Array.of_list
      (base :: List.filter (fun i -> i <> base) (Topology.subscribers topology ~item))
  in
  Scm.create_sharded (scm_spec config) ~subscribers ~seed

(* --- placement --- *)

let test_placement_partitions () =
  let items = List.init 30 (fun i -> Printf.sprintf "product%d" i) in
  let topo = Topology.create (Topology.sharded ~spread:3 ()) ~n_sites:20 ~items in
  let p = Placement.create topo ~n_domains:4 ~items in
  Alcotest.(check int) "domains" 4 (Placement.n_domains p);
  let seen = Array.make 20 0 in
  for d = 0 to 3 do
    (* balanced: 20 sites over 4 domains is exactly 5 each *)
    Alcotest.(check int)
      (Printf.sprintf "domain %d balanced" d)
      5
      (Array.length (Placement.sites_of p d));
    Array.iter
      (fun s ->
        seen.(s) <- seen.(s) + 1;
        Alcotest.(check int) "domain_of consistent" d (Placement.domain_of p s))
      (Placement.sites_of p d)
  done;
  Array.iteri
    (fun s n -> Alcotest.(check int) (Printf.sprintf "site %d owned once" s) 1 n)
    seen;
  (* deterministic: same inputs, same partition *)
  let q = Placement.create topo ~n_domains:4 ~items in
  for s = 0 to 19 do
    Alcotest.(check int) "reproducible" (Placement.domain_of p s) (Placement.domain_of q s)
  done

let test_placement_clamps () =
  let items = [ "a" ] in
  let topo = Topology.create Topology.flat ~n_sites:2 ~items in
  let p = Placement.create topo ~n_domains:8 ~items in
  Alcotest.(check int) "clamped to site count" 2 (Placement.n_domains p)

(* --- one shard: Runner.run and Runner.run_parallel replay each other --- *)

let test_domains1_replays_sequential () =
  let config =
    {
      Config.default with
      Config.n_sites = 6;
      products = Product.catalogue ~n_regular:12 ~n_non_regular:0 ~initial_amount:100;
      sync_interval = Some (Time.of_ms 25.);
      seed = 11;
    }
  in
  let cluster = Cluster.create config in
  let seq =
    Runner.run cluster
      ~nth_update:(Scm.generator (Scm.create (scm_spec config) ~seed:17))
      ~total_updates:200 ()
  in
  let pc = Pcluster.create config in
  let par =
    Runner.run_parallel pc
      ~nth_update:(Scm.generator (Scm.create (scm_spec config) ~seed:17))
      ~total_updates:200 ()
  in
  Alcotest.(check int) "applied" seq.Runner.final.Runner.applied
    par.Runner.final.Runner.applied;
  Alcotest.(check int) "rejected" seq.Runner.final.Runner.rejected
    par.Runner.final.Runner.rejected;
  Alcotest.(check int) "correspondences" seq.Runner.final.Runner.total_correspondences
    par.Runner.final.Runner.total_correspondences;
  List.iter
    (fun item ->
      Alcotest.(check (list int)) item
        (Cluster.replica_amounts cluster ~item)
        (Pcluster.replica_amounts pc ~item))
    (item_names config.Config.products);
  Alcotest.(check bool) "spans identical" true (Cluster.spans cluster = Pcluster.spans pc)

(* --- one shard: the straight-through run equals the windowed run --- *)

(* Arms [n] workload updates on their owning shards, then runs with the
   given barrier hook (none selects the straight-through engine run). *)
let single_shard_run ?on_round () =
  let config =
    {
      Config.default with
      Config.n_sites = 6;
      products = Product.mixed ~n_regular:8 ~n_non_regular:2 ~n_epoch:2 ~initial_amount:100;
      sync_interval = Some (Time.of_ms 25.);
      snapshot_interval = Some (Time.of_ms 50.);
      seed = 5;
    }
  in
  let pc = Pcluster.create config in
  let wl = Scm.create (scm_spec config) ~seed:9 in
  for k = 0 to 299 do
    let site, item, delta = Scm.generator wl k in
    Pcluster.schedule_at_site pc ~site
      ~at:(Time.of_ms (float_of_int k *. 2.))
      (fun () -> Site.submit_update (Pcluster.site pc site) ~item ~delta (fun _ -> ()))
  done;
  Pcluster.run ?on_round pc;
  (config, pc)

let test_single_shard_hook_invisible () =
  let config, plain = single_shard_run () in
  let barriers = ref 0 in
  let _, hooked = single_shard_run ~on_round:(fun ~at:_ -> incr barriers) () in
  Alcotest.(check int) "straight through: no windows" 0 (Pcluster.rounds plain);
  Alcotest.(check bool) "hooked run stepped in windows" true (!barriers > 0);
  List.iter
    (fun item ->
      Alcotest.(check (list int)) item
        (Pcluster.replica_amounts plain ~item)
        (Pcluster.replica_amounts hooked ~item))
    (item_names config.Config.products);
  Alcotest.(check (list (pair int int))) "correspondences"
    (Pcluster.per_site_correspondences plain)
    (Pcluster.per_site_correspondences hooked);
  Alcotest.(check int) "probe passes" (Pcluster.probes_run plain) (Pcluster.probes_run hooked);
  Alcotest.(check bool) "probes ran on the snapshot cadence" true
    (Pcluster.probes_run plain > 1);
  Alcotest.(check bool) "spans identical" true (Pcluster.spans plain = Pcluster.spans hooked);
  Alcotest.(check bool) "metric samples identical" true
    (Pcluster.metric_samples plain = Pcluster.metric_samples hooked)

(* --- same-seed multi-domain runs are byte-identical --- *)

let sharded_run ~domains =
  let config =
    {
      Config.default with
      Config.n_sites = 100;
      products = Product.catalogue ~n_regular:20 ~n_non_regular:5 ~initial_amount:100;
      topology = Topology.sharded ~spread:4 ();
      sync_interval = Some (Time.of_ms 25.);
      snapshot_interval = Some (Time.of_ms 250.);
      domains;
      seed = 11;
    }
  in
  let pc = Pcluster.create config in
  let wl = sharded_wl config (Pcluster.topology pc) ~seed:23 in
  let outcome =
    Runner.run_parallel pc ~nth_update:(Scm.generator wl) ~total_updates:200 ()
  in
  (config, pc, outcome)

let test_parallel_deterministic () =
  let config, pc1, o1 = sharded_run ~domains:4 in
  let _, pc2, o2 = sharded_run ~domains:4 in
  Alcotest.(check int) "four shards" 4 (Pcluster.n_domains pc1);
  Alcotest.(check int) "applied" o1.Runner.final.Runner.applied
    o2.Runner.final.Runner.applied;
  Alcotest.(check int) "rejected" o1.Runner.final.Runner.rejected
    o2.Runner.final.Runner.rejected;
  Alcotest.(check int) "rounds" (Pcluster.rounds pc1) (Pcluster.rounds pc2);
  List.iter
    (fun item ->
      Alcotest.(check (list int)) item
        (Pcluster.replica_amounts pc1 ~item)
        (Pcluster.replica_amounts pc2 ~item))
    (item_names config.Config.products);
  Alcotest.(check bool) "spans identical" true (Pcluster.spans pc1 = Pcluster.spans pc2);
  Alcotest.(check bool) "metric samples identical" true
    (Pcluster.metric_samples pc1 = Pcluster.metric_samples pc2);
  Alcotest.(check bool) "samples were taken" true (Pcluster.metric_samples pc1 <> [])

(* --- live joins across the shard boundary --- *)

let two_shards ?(topology = Topology.sharded ~spread:3 ()) () =
  Pcluster.create
    {
      Config.default with
      Config.n_sites = 12;
      products = Product.catalogue ~n_regular:8 ~n_non_regular:0 ~initial_amount:100;
      topology;
      sync_interval = Some (Time.of_ms 25.);
      snapshot_interval = Some (Time.of_ms 100.);
      domains = 2;
      seed = 19;
    }

(* An item whose base lives on [shard]. *)
let based_on pc shard =
  List.find
    (fun item ->
      Pcluster.domain_of_site pc (Topology.base_index (Pcluster.topology pc) ~item) = shard)
    (item_names (Pcluster.config pc).Config.products)

let expect_joined joiner = function
  | Some (i, Ok ()) when i = joiner -> ()
  | Some (_, Error reason) -> Alcotest.failf "join failed: %a" Update.pp_reason reason
  | _ -> Alcotest.fail "join never completed"

(* The joiner subscribes to one item based on each shard, so it lands
   beside the first base and fetches the second across the mailboxes,
   then sells the second item and must pull its AV across too. *)
let two_shard_join () =
  let pc = two_shards () in
  let near = based_on pc 0 and far = based_on pc 1 in
  let wl = sharded_wl (Pcluster.config pc) (Pcluster.topology pc) ~seed:29 in
  ignore (Runner.run_parallel pc ~nth_update:(Scm.generator wl) ~total_updates:100 ());
  let outcome = ref None in
  let joiner = Pcluster.add_retailer ~interest:[ near; far ] pc (fun r -> outcome := Some r) in
  Pcluster.run pc;
  Pcluster.schedule_at_site pc ~site:joiner ~at:(Pcluster.now pc) (fun () ->
      Site.submit_update (Pcluster.site pc joiner) ~item:far ~delta:(-3) (fun _ -> ()));
  Pcluster.run pc;
  Pcluster.flush_all_syncs pc;
  (pc, joiner, near, far, !outcome)

let test_live_join_two_shards () =
  let pc, joiner, near, far, outcome = two_shard_join () in
  let base item = Topology.base_index (Pcluster.topology pc) ~item in
  Alcotest.(check int) "joiner sits beside its first base"
    (Pcluster.domain_of_site pc (base near))
    (Pcluster.domain_of_site pc joiner);
  Alcotest.(check bool) "the other base is across the boundary" true
    (Pcluster.domain_of_site pc (base far) <> Pcluster.domain_of_site pc joiner);
  expect_joined joiner outcome;
  (match Pcluster.check_invariants pc with Ok () -> () | Error e -> Alcotest.fail e);
  List.iter
    (fun item ->
      Alcotest.(check (option int))
        (item ^ " replica equals the base's")
        (Site.amount_of (Pcluster.site pc (base item)) ~item)
        (Site.amount_of (Pcluster.site pc joiner) ~item))
    [ near; far ];
  let again, _, _, _, _ = two_shard_join () in
  Alcotest.(check bool) "spans identical" true (Pcluster.spans pc = Pcluster.spans again);
  Alcotest.(check bool) "metric samples identical" true
    (Pcluster.metric_samples pc = Pcluster.metric_samples again)

(* A snapshot never reads across a shard, and a lag gauge reads its
   item's base: a replica away from the base has [sync.version_lag]
   exactly when the base is on its own shard. A joiner registered at the
   first read counts too. *)
let test_version_lag_same_shard () =
  let pc = two_shards () in
  let near = based_on pc 0 and far = based_on pc 1 in
  ignore (Pcluster.add_retailer ~interest:[ near; far ] pc (fun _ -> ()));
  Pcluster.run pc;
  Pcluster.snapshot_now pc;
  let topo = Pcluster.topology pc in
  let shard = Pcluster.domain_of_site pc in
  let label site = Avdb_net.Address.to_string (Avdb_net.Address.of_int site) in
  let pairs ~same_shard =
    List.concat_map
      (fun item ->
        let base = Topology.base_index topo ~item in
        List.filter_map
          (fun site ->
            if site <> base && (shard site = shard base) = same_shard then Some (label site, item)
            else None)
          (Pcluster.subscribers pc ~item))
      (item_names (Pcluster.config pc).Config.products)
    |> List.sort compare
  in
  let lagged =
    List.filter_map
      (fun (s : Avdb_obs.Registry.sample) ->
        if s.Avdb_obs.Registry.name = "sync.version_lag" then
          Some (List.assoc "site" s.labels, List.assoc "item" s.labels)
        else None)
      (Pcluster.metric_samples pc)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "some replicas sit across the boundary from their base" true
    (pairs ~same_shard:false <> []);
  Alcotest.(check (list (pair string string)))
    "lag gauges for the same-shard replicas only" (pairs ~same_shard:true) lagged

(* With the joiner's own-shard base down, the earliest pending event is an
   RPC timeout, long after the cross-shard request is due: the join must
   still leave from inside the next run's first window. *)
let test_live_join_local_base_down () =
  let pc = two_shards () in
  let near = based_on pc 0 and far = based_on pc 1 in
  Site.crash (Pcluster.base_site_for pc ~item:near);
  let outcome = ref None in
  ignore (Pcluster.add_retailer ~interest:[ near; far ] pc (fun r -> outcome := Some r));
  Pcluster.run pc;
  match !outcome with
  | Some (_, Error Update.Unreachable) -> ()
  | _ -> Alcotest.fail "expected Unreachable join failure"

(* Under full replication every site syncs to the whole membership, so
   the member-count bump must reach the shard the joiner is not on. *)
let test_live_join_flat_two_shards () =
  let pc = two_shards ~topology:Topology.flat () in
  let outcome = ref None in
  let joiner = Pcluster.add_retailer pc (fun r -> outcome := Some r) in
  Pcluster.run pc;
  expect_joined joiner !outcome;
  for site = 1 to joiner - 1 do
    if Pcluster.domain_of_site pc site <> Pcluster.domain_of_site pc joiner then
      Pcluster.schedule_at_site pc ~site ~at:(Pcluster.now pc) (fun () ->
          Site.submit_update (Pcluster.site pc site) ~item:"product0" ~delta:(-1) (fun _ -> ()))
  done;
  Pcluster.run pc;
  Pcluster.flush_all_syncs pc;
  match Pcluster.check_invariants pc with Ok () -> () | Error e -> Alcotest.fail e

(* --- sends made between runs reach other shards --- *)

(* Without a sync interval the only propagation is the final forced flush,
   whose notices all cross the shard boundary while both engine queues are
   empty: the run must still deliver them. *)
let test_flush_between_runs_crosses_shards () =
  let pc =
    Pcluster.create
      {
        Config.default with
        Config.n_sites = 2;
        products = Product.catalogue ~n_regular:1 ~n_non_regular:0 ~initial_amount:100;
        sync_interval = None;
        domains = 2;
        seed = 3;
      }
  in
  Alcotest.(check int) "one site per shard" 2 (Pcluster.n_domains pc);
  Pcluster.schedule_at_site pc ~site:1 ~at:(Pcluster.now pc) (fun () ->
      Site.submit_update (Pcluster.site pc 1) ~item:"product0" ~delta:(-3) (fun _ -> ()));
  Pcluster.run pc;
  Pcluster.flush_all_syncs pc;
  Alcotest.(check (list int)) "replicas agree" [ 97; 97 ]
    (Pcluster.replica_amounts pc ~item:"product0")

(* --- a run that never reaches the probe cadence still gets probed --- *)

let test_short_run_probes () =
  List.iter
    (fun domains ->
      let config =
        {
          Config.default with
          Config.n_sites = 20;
          products = Product.catalogue ~n_regular:4 ~n_non_regular:2 ~initial_amount:100;
          topology = Topology.sharded ~spread:3 ();
          sync_interval = Some (Time.of_ms 25.);
          (* No snapshot interval: the periodic probes never fire, so only
             the quiescence-time pass can cover the run. *)
          snapshot_interval = None;
          domains;
          seed = 7;
        }
      in
      let pc = Pcluster.create config in
      let wl = sharded_wl config (Pcluster.topology pc) ~seed:13 in
      let _ = Runner.run_parallel pc ~nth_update:(Scm.generator wl) ~total_updates:20 () in
      Alcotest.(check int)
        (Printf.sprintf "one probe pass at %d domains" domains)
        1 (Pcluster.probes_run pc))
    [ 1; 2 ]

(* --- the oracle accepts a parallel run's merged history --- *)

let test_oracle_accepts_parallel () =
  let config =
    {
      Config.default with
      Config.n_sites = 12;
      products = Product.catalogue ~n_regular:8 ~n_non_regular:4 ~initial_amount:100;
      topology = Topology.sharded ~spread:4 ();
      sync_interval = Some (Time.of_ms 25.);
      domains = 3;
      seed = 7;
    }
  in
  let pc = Pcluster.create config in
  let wl = sharded_wl config (Pcluster.topology pc) ~seed:31 in
  let recorders =
    Array.init (Pcluster.n_domains pc) (fun _ -> Avdb_check.History.create ())
  in
  let engines = Pcluster.engines pc in
  let submit ~shard site ~item ~delta k =
    Avdb_check.History.submit_update recorders.(shard) ~engine:engines.(shard) site
      ~item ~delta k
  in
  ignore
    (Runner.run_parallel pc ~nth_update:(Scm.generator wl) ~total_updates:150 ~submit ());
  Pcluster.flush_all_syncs pc;
  let history = Avdb_check.History.merge (Array.to_list recorders) in
  Alcotest.(check int) "history complete" 150 (Avdb_check.History.length history);
  let snapshot = Avdb_check.Checker.snapshot_of_cluster pc in
  let verdict = Avdb_check.Checker.check ~quiescent:true ~history snapshot in
  if not (Avdb_check.Checker.ok verdict) then
    Alcotest.failf "oracle rejected the parallel run:@.%a" Avdb_check.Checker.pp_verdict
      verdict

(* --- nemesis on the parallel engine --- *)

let test_nemesis_parallel_seeds () =
  let open Avdb_chaos in
  for seed = 0 to 4 do
    let cfg = { (Nemesis.default ~seed) with Nemesis.domains = 2 } in
    let report = Nemesis.check ~shrink:false cfg in
    if not (Nemesis.passed report) then
      Alcotest.failf "parallel nemesis violation:@.%a" Nemesis.pp_report report
  done

let test_nemesis_parallel_oracle () =
  let open Avdb_chaos in
  let cfg = { (Nemesis.default ~seed:3) with Nemesis.domains = 2; oracle = true } in
  let report = Nemesis.check ~shrink:false cfg in
  if not (Nemesis.passed report) then
    Alcotest.failf "parallel oracle nemesis violation:@.%a" Nemesis.pp_report report;
  Alcotest.(check bool) "oracle judged the merged history" true
    (report.Nemesis.outcome.Nemesis.stats.Nemesis.oracle_entries > 0)

let test_nemesis_parallel_deterministic () =
  let open Avdb_chaos in
  let cfg = { (Nemesis.default ~seed:42) with Nemesis.domains = 2 } in
  let schedule = Nemesis.generate cfg in
  let a = Nemesis.execute cfg schedule and b = Nemesis.execute cfg schedule in
  Alcotest.(check bool) "parallel execution is reproducible" true (a = b)

let test_nemesis_rejects_disk_faults_parallel () =
  let open Avdb_chaos in
  let cfg =
    { (Nemesis.default ~seed:1) with Nemesis.domains = 2; Nemesis.disk_faults = true }
  in
  match Nemesis.execute cfg [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disk faults accepted with domains > 1"

let suites =
  [
    ( "core.parallel",
      [
        Alcotest.test_case "placement partitions sites" `Quick test_placement_partitions;
        Alcotest.test_case "placement clamps domains" `Quick test_placement_clamps;
        Alcotest.test_case "domains=1 replays sequential" `Quick
          test_domains1_replays_sequential;
        Alcotest.test_case "one shard: hook changes nothing" `Quick
          test_single_shard_hook_invisible;
        Alcotest.test_case "live join across shards" `Quick test_live_join_two_shards;
        Alcotest.test_case "live join, local base down" `Quick
          test_live_join_local_base_down;
        Alcotest.test_case "live join, flat, two shards" `Quick
          test_live_join_flat_two_shards;
        Alcotest.test_case "lag gauges only for same-shard bases" `Quick
          test_version_lag_same_shard;
        Alcotest.test_case "flush between runs crosses shards" `Quick
          test_flush_between_runs_crosses_shards;
        Alcotest.test_case "short run still probed" `Quick test_short_run_probes;
        Alcotest.test_case "same-seed runs byte-identical" `Quick
          test_parallel_deterministic;
        Alcotest.test_case "oracle accepts merged history" `Quick
          test_oracle_accepts_parallel;
        Alcotest.test_case "nemesis seeds pass" `Slow test_nemesis_parallel_seeds;
        Alcotest.test_case "nemesis oracle passes" `Slow test_nemesis_parallel_oracle;
        Alcotest.test_case "nemesis deterministic" `Quick
          test_nemesis_parallel_deterministic;
        Alcotest.test_case "nemesis rejects disk faults" `Quick
          test_nemesis_rejects_disk_faults_parallel;
      ] );
  ]
