open Avdb_sim
open Avdb_core

let item_names n = List.init n (fun i -> "product" ^ string_of_int i)

(* --- resolved-topology structure --- *)

(* What [Topology.interest] must return: the ascending catalogue
   positions whose item [interested] accepts. *)
let expected_interest t ~items ~site =
  List.concat
    (List.mapi (fun p item -> if Topology.interested t ~site ~item then [ p ] else []) items)

let interest_agrees t ~items ~site =
  Array.to_list (Topology.interest t ~site) = expected_interest t ~items ~site

let check_interest t ~items =
  for site = 0 to Topology.n_sites t - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "site %d interest" site)
      (expected_interest t ~items ~site)
      (Array.to_list (Topology.interest t ~site))
  done

let test_flat_is_legacy () =
  let t = Topology.create Topology.flat ~n_sites:5 ~items:(item_names 4) in
  Alcotest.(check bool) "full replication" true (Topology.is_full t);
  List.iter
    (fun item ->
      Alcotest.(check int) "base is site 0" 0 (Topology.base_index t ~item);
      Alcotest.(check (list int))
        "everyone subscribes" [ 0; 1; 2; 3; 4 ]
        (Topology.subscribers t ~item);
      for site = 0 to 4 do
        Alcotest.(check bool) "interested" true (Topology.interested t ~site ~item)
      done;
      Alcotest.(check (option int)) "no hierarchy" None (Topology.av_parent t ~site:3 ~item))
    (item_names 4);
  check_interest t ~items:(item_names 4)

let structural_ok t ~n_sites ~spread item =
  let base = Topology.base_index t ~item in
  Alcotest.(check bool) "base in range" true (base >= 0 && base < n_sites);
  let subs = Topology.subscribers t ~item in
  Alcotest.(check int) "spread honoured" (Stdlib.min spread n_sites) (List.length subs);
  Alcotest.(check bool) "base subscribes" true (List.mem base subs);
  Alcotest.(check (list int)) "sorted" (List.sort compare subs) subs;
  List.iter
    (fun s -> Alcotest.(check bool) "subscriber in range" true (s >= 0 && s < n_sites))
    subs;
  for site = 0 to n_sites - 1 do
    Alcotest.(check bool) "interested iff subscribed" (List.mem site subs)
      (Topology.interested t ~site ~item)
  done;
  (* ranks: a bijection onto 0 .. count-1 with the base at rank 0 *)
  Alcotest.(check (option int)) "base rank 0" (Some 0) (Topology.rank t ~site:base ~item);
  let ranks =
    List.filter_map (fun site -> Topology.rank t ~site ~item) subs |> List.sort compare
  in
  Alcotest.(check (list int)) "ranks dense" (List.init (List.length subs) Fun.id) ranks

let test_sharded_structure () =
  let n_sites = 17 and spread = 3 in
  let t =
    Topology.create (Topology.sharded ~spread ()) ~n_sites ~items:(item_names 30)
  in
  List.iter (structural_ok t ~n_sites ~spread) (item_names 30);
  (* determinism: a second resolution agrees exactly *)
  let t' =
    Topology.create (Topology.sharded ~spread ()) ~n_sites ~items:(item_names 30)
  in
  List.iter
    (fun item ->
      Alcotest.(check int) "same base" (Topology.base_index t ~item)
        (Topology.base_index t' ~item);
      Alcotest.(check (list int)) "same subscribers" (Topology.subscribers t ~item)
        (Topology.subscribers t' ~item))
    (item_names 30);
  (* bases actually spread: more than one distinct base across 30 items *)
  let bases =
    List.sort_uniq compare
      (List.map (fun item -> Topology.base_index t ~item) (item_names 30))
  in
  Alcotest.(check bool) "sharded over several bases" true (List.length bases > 1);
  (* total base function: an item outside the catalogue still resolves *)
  let b = Topology.base_index t ~item:"never-created" in
  Alcotest.(check bool) "unknown item has a base" true (b >= 0 && b < n_sites)

let test_hierarchy_parents () =
  let n_sites = 40 and spread = 9 in
  let t =
    Topology.create
      (Topology.sharded ~spread ~hierarchy_fanout:2 ())
      ~n_sites ~items:(item_names 10)
  in
  List.iter
    (fun item ->
      let base = Topology.base_index t ~item in
      Alcotest.(check (option int)) "base has no parent" None
        (Topology.av_parent t ~site:base ~item);
      Alcotest.(check (option int)) "non-subscriber has no parent" None
        (Topology.av_parent t
           ~site:(List.find (fun s -> not (Topology.interested t ~site:s ~item))
                    (List.init n_sites Fun.id))
           ~item);
      List.iter
        (fun site ->
          if site <> base then
            match Topology.av_parent t ~site ~item with
            | None -> Alcotest.fail "subscriber below the root must have a parent"
            | Some parent ->
                Alcotest.(check bool) "parent subscribes" true
                  (Topology.interested t ~site:parent ~item);
                let r site = Option.get (Topology.rank t ~site ~item) in
                Alcotest.(check bool) "parent closer to the base" true
                  (r parent < r site);
                (* climbing terminates at the base *)
                let rec climb site steps =
                  if steps > spread then Alcotest.fail "parent chain does not terminate"
                  else
                    match Topology.av_parent t ~site ~item with
                    | None -> Alcotest.(check int) "chain ends at base" base site
                    | Some p -> climb p (steps + 1)
                in
                climb site 0)
        (Topology.subscribers t ~item))
    (item_names 10)

let test_explicit_topology () =
  let spec =
    {
      Topology.base_assignment = Topology.Fixed_base 0;
      replication = Topology.Explicit [ ("widget", [ 1 ]); ("gadget", [ 2; 3 ]) ];
      hierarchy_fanout = None;
    }
  in
  let items = [ "widget"; "gadget"; "orphan" ] in
  let t = Topology.create spec ~n_sites:4 ~items in
  Alcotest.(check (list int)) "widget at base+1" [ 0; 1 ] (Topology.subscribers t ~item:"widget");
  Alcotest.(check (list int)) "gadget at base+2+3" [ 0; 2; 3 ]
    (Topology.subscribers t ~item:"gadget");
  Alcotest.(check (list int)) "unlisted item at its base only" [ 0 ]
    (Topology.subscribers t ~item:"orphan");
  Alcotest.(check bool) "site 2 not interested in widget" false
    (Topology.interested t ~site:2 ~item:"widget");
  check_interest t ~items;
  Alcotest.(check (list int)) "site 0 holds the whole catalogue" [ 0; 1; 2 ]
    (Array.to_list (Topology.interest t ~site:0))

let test_register_joiner () =
  let t =
    Topology.create (Topology.sharded ~spread:2 ()) ~n_sites:6 ~items:(item_names 8)
  in
  let v0 = Topology.version t in
  let interest = Topology.default_joiner_interest t ~site:6 ~items:(item_names 8) in
  Topology.register_joiner t ~site:6 ~items:interest;
  Alcotest.(check int) "membership grew" 7 (Topology.n_sites t);
  Alcotest.(check bool) "version bumped" true (Topology.version t > v0);
  List.iter
    (fun item ->
      Alcotest.(check bool) "joiner subscribed where declared" (List.mem item interest)
        (Topology.interested t ~site:6 ~item))
    (item_names 8);
  check_interest t ~items:(item_names 8);
  (* a second declaration for the same site extends its interest set *)
  Topology.register_joiner t ~site:6 ~items:[ "product7"; "product0" ];
  check_interest t ~items:(item_names 8);
  (* under Full, a joiner's default interest is the whole catalogue *)
  let tf = Topology.create Topology.flat ~n_sites:3 ~items:(item_names 5) in
  Alcotest.(check (list string)) "full joiner wants everything" (item_names 5)
    (Topology.default_joiner_interest tf ~site:3 ~items:(item_names 5));
  Topology.register_joiner tf ~site:3 ~items:(item_names 5);
  check_interest tf ~items:(item_names 5)

let qcheck_topology =
  let open QCheck in
  [
    Test.make ~name:"sharded topology structural invariants" ~count:200
      (quad (int_range 1 40) (int_range 1 8) (option (int_range 2 4)) (int_range 1 25))
      (fun (n_sites, spread, hierarchy_fanout, n_items) ->
        let t =
          Topology.create
            (Topology.sharded ~spread ?hierarchy_fanout ())
            ~n_sites ~items:(item_names n_items)
        in
        List.for_all
          (fun site -> interest_agrees t ~items:(item_names n_items) ~site)
          (List.init n_sites Fun.id)
        && List.for_all
          (fun item ->
            let base = Topology.base_index t ~item in
            let subs = Topology.subscribers t ~item in
            let count = List.length subs in
            base >= 0 && base < n_sites
            && count = Stdlib.min spread n_sites
            && List.mem base subs
            && List.sort compare subs = subs
            && Topology.rank t ~site:base ~item = Some 0
            && List.sort compare (List.filter_map (fun s -> Topology.rank t ~site:s ~item) subs)
               = List.init count Fun.id
            && List.for_all
                 (fun site ->
                   match Topology.av_parent t ~site ~item with
                   | None ->
                       site = base || hierarchy_fanout = None
                       || not (Topology.interested t ~site ~item)
                   | Some p ->
                       Topology.interested t ~site:p ~item
                       && Option.get (Topology.rank t ~site:p ~item)
                          < Option.get (Topology.rank t ~site ~item))
                 (List.init n_sites Fun.id))
          (item_names n_items));
  ]

(* --- partial replication at the cluster level --- *)

(* widget lives at {0, 1}, gadget at {0, 2}: site 2 is a bystander for
   widget and must neither store it, serve reads of it, accept updates of
   it, nor receive sync rows for it. *)
let partial_cluster () =
  Cluster.create
    {
      Config.default with
      Config.products =
        [
          Product.regular "widget" ~initial_amount:90;
          Product.regular "gadget" ~initial_amount:60;
        ];
      topology =
        {
          Topology.base_assignment = Topology.Fixed_base 0;
          replication = Topology.Explicit [ ("widget", [ 1 ]); ("gadget", [ 2 ]) ];
          hierarchy_fanout = None;
        };
      sync_interval = Some (Time.of_ms 20.);
      seed = 19;
    }

let run_update cluster site item delta =
  let result = ref None in
  Site.submit_update (Cluster.site cluster site) ~item ~delta (fun r -> result := Some r);
  Cluster.run cluster;
  Option.get !result

let test_unsubscribed_site_serves_no_reads () =
  let cluster = partial_cluster () in
  let bystander = Cluster.site cluster 2 in
  Alcotest.(check bool) "not interested" false (Site.interested_in bystander ~item:"widget");
  Alcotest.(check (option int)) "no local read" None (Site.read_local bystander ~item:"widget");
  Alcotest.(check (option int)) "no row at all" None (Site.amount_of bystander ~item:"widget");
  Alcotest.(check bool) "subscriber is interested" true
    (Site.interested_in (Cluster.site cluster 1) ~item:"widget")

let test_unsubscribed_site_rejects_updates () =
  let cluster = partial_cluster () in
  let result = run_update cluster 2 "widget" (-5) in
  match result.Update.outcome with
  | Update.Rejected (Update.Unknown_item "widget") -> ()
  | _ -> Alcotest.failf "expected Unknown_item rejection, got %a" Update.pp_result result

let test_unsubscribed_site_receives_no_sync () =
  let cluster = partial_cluster () in
  ignore (run_update cluster 1 "widget" (-25));
  ignore (run_update cluster 0 "widget" 10);
  ignore (run_update cluster 2 "gadget" (-6));
  (* debounced flushes, then the forced convergence broadcast *)
  Cluster.run cluster;
  Cluster.flush_all_syncs cluster;
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (option int)) "bystander still has no widget row" None
    (Site.amount_of (Cluster.site cluster 2) ~item:"widget");
  Alcotest.(check (option int)) "widget subscriber has no gadget row" None
    (Site.amount_of (Cluster.site cluster 1) ~item:"gadget");
  Alcotest.(check (list int)) "widget replicas converged" [ 75; 75 ]
    (Cluster.replica_amounts cluster ~item:"widget");
  Alcotest.(check (list int)) "gadget replicas converged" [ 54; 54 ]
    (Cluster.replica_amounts cluster ~item:"gadget");
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let received cluster site =
  (Avdb_net.Stats.site (Cluster.net_stats cluster) (Avdb_net.Address.of_int site))
    .Avdb_net.Stats.received

(* Site 0 shares widget with site 1 and gadget with site 2. Its gadget
   change holds nothing new for site 1, which already has the widget
   counter, so only site 2 hears of it. *)
let test_notice_only_with_news () =
  let cluster = partial_cluster () in
  ignore (run_update cluster 0 "widget" 5);
  ignore (run_update cluster 0 "gadget" 5);
  Alcotest.(check int) "widget's peer got one notice" 1 (received cluster 1);
  Alcotest.(check int) "gadget's peer got one notice" 1 (received cluster 2);
  Alcotest.(check (list int)) "widget replicas agree" [ 95; 95 ]
    (Cluster.replica_amounts cluster ~item:"widget");
  Alcotest.(check (list int)) "gadget replicas agree" [ 65; 65 ]
    (Cluster.replica_amounts cluster ~item:"gadget")

(* The same exchange with the widget notice lost to a partition. The
   gadget change brings site 1 no notice, so site 1 catches up from site
   0's next widget change, or from the forced flush when there is none. *)
let test_lost_notice_recovers () =
  let lose_widget_notice () =
    let cluster = partial_cluster () in
    Cluster.partition cluster 0 1;
    ignore (run_update cluster 0 "widget" 5);
    Alcotest.(check int) "widget notice lost" 1
      (Avdb_net.Stats.total_dropped (Cluster.net_stats cluster));
    Cluster.heal cluster 0 1;
    ignore (run_update cluster 0 "gadget" 5);
    cluster
  in
  let widget_at cluster = Site.amount_of (Cluster.site cluster 1) ~item:"widget" in
  let converged cluster =
    match Cluster.check_invariants cluster with Ok () -> () | Error e -> Alcotest.fail e
  in
  let cluster = lose_widget_notice () in
  ignore (run_update cluster 0 "widget" 3);
  Alcotest.(check (option int)) "next widget change repairs" (Some 98) (widget_at cluster);
  converged cluster;
  let cluster = lose_widget_notice () in
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (option int)) "forced flush repairs" (Some 95) (widget_at cluster);
  converged cluster

let test_av_circulates_within_interest_set () =
  let cluster = partial_cluster () in
  (* site 1's Even share (45) cannot cover -60; it must pull AV from the
     base, and the transfer stays inside widget's two-site interest set. *)
  let result = run_update cluster 1 "widget" (-60) in
  (match result.Update.outcome with
  | Update.Applied (Update.With_transfer _) -> ()
  | _ -> Alcotest.failf "expected transfer-backed apply, got %a" Update.pp_result result);
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (list int)) "replicas agree" [ 30; 30 ]
    (Cluster.replica_amounts cluster ~item:"widget");
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_sharded_cluster_converges () =
  let n_sites = 24 and n_items = 12 in
  let initial_amount = 600 in
  let config =
    {
      Config.default with
      Config.n_sites;
      products =
        Product.catalogue ~n_regular:n_items ~n_non_regular:0
          ~initial_amount;
      topology = Topology.sharded ~spread:3 ();
      sync_interval = Some (Time.of_ms 20.);
      seed = 77;
    }
  in
  let cluster = Cluster.create config in
  let topology = Cluster.topology cluster in
  let spec =
    Avdb_workload.Scm.paper_spec ~n_sites ~n_items ~initial_amount ()
  in
  let subscribers item =
    let base = Topology.base_index topology ~item in
    Array.of_list
      (base :: List.filter (fun i -> i <> base) (Cluster.subscribers cluster ~item))
  in
  let workload = Avdb_workload.Scm.create_sharded spec ~subscribers ~seed:77 in
  let outcome =
    Runner.run cluster
      ~nth_update:(Avdb_workload.Scm.generator workload)
      ~total_updates:300 ()
  in
  Alcotest.(check int) "every update settled" 300
    (outcome.Runner.final.Runner.applied + outcome.Runner.final.Runner.rejected);
  Cluster.flush_all_syncs cluster;
  (match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* per-site state is bounded by the interest set, far below the
     catalogue footprint of the busiest site *)
  let words = List.map snd (Cluster.live_words_per_site cluster) in
  let max_words = List.fold_left Stdlib.max 0 words in
  let min_words = List.fold_left Stdlib.min max_int words in
  Alcotest.(check bool) "footprint varies with interest" true (min_words < max_words)

(* Building a site costs its interest set, not the catalogue: at a fixed
   spread, a cluster eight times larger in both sites and items must
   allocate about as much per site, its metric series included (the
   registry's first read registers them). The gap is 8x because one
   per-site walk of the catalogue (say, in the gauge registration) reads
   3.7x here but only 2.2x at a 4x gap, too close to the bound. *)
let test_setup_scales_with_interest () =
  let bytes_per_site n =
    let config =
      {
        Config.default with
        Config.n_sites = n;
        tracing = false;
        products =
          Product.mixed ~n_regular:(n / 2) ~n_non_regular:(n / 4) ~n_epoch:(n / 4)
            ~initial_amount:100;
        topology = Topology.sharded ~spread:3 ();
      }
    in
    let b0 = Gen.allocated_bytes () in
    ignore (Sys.opaque_identity (Cluster.registry (Cluster.create config)));
    (Gen.allocated_bytes () -. b0) /. float_of_int n
  in
  let small = bytes_per_site 300 in
  let large = bytes_per_site 2400 in
  if large > small *. 2. then
    Alcotest.failf "set-up allocated %.0f bytes per site at N = 2400 vs %.0f at N = 300" large
      small

(* Most runs never read the metrics registry, so a cluster registers its
   sites' series only when the registry is first read. A never-read
   create of sharded-1000's shape pays for the sites and their stores,
   not for about 38 series per site. *)
let test_unread_setup_registers_no_series () =
  let n = 1000 in
  let config =
    {
      Config.default with
      Config.n_sites = n;
      tracing = false;
      products = Product.catalogue ~n_regular:n ~n_non_regular:0 ~initial_amount:100_000;
      topology = Topology.sharded ~spread:3 ();
      allocation = Config.All_at_base;
    }
  in
  let b0 = Gen.allocated_bytes () in
  ignore (Sys.opaque_identity (Cluster.create config));
  let per_site = (Gen.allocated_bytes () -. b0) /. float_of_int n in
  if per_site > 18_000. then
    Alcotest.failf "a never-read set-up allocated %.0f bytes per site, above 18,000" per_site

let qcheck_partial =
  let open QCheck in
  [
    (* ISSUE acceptance: random sharded topologies around N = 100 under a
       randomized fault schedule keep AV conservation, decision agreement
       and a clean consistency-oracle verdict. *)
    Test.make ~name:"sharded nemesis at N~100 passes the oracle" ~count:5
      (quad (int_range 0 1000) (int_range 80 120) (int_range 2 5)
         (option (int_range 2 3)))
      (fun (seed, n_sites, spread, hierarchy) ->
        let cfg =
          {
            (Avdb_chaos.Nemesis.default ~seed) with
            Avdb_chaos.Nemesis.n_sites;
            oracle = true;
            spread = Some spread;
            hierarchy;
          }
        in
        Avdb_chaos.Nemesis.passed (Avdb_chaos.Nemesis.check ~shrink:false cfg));
  ]

let suites =
  [
    ( "core.topology",
      [
        Alcotest.test_case "flat is the legacy topology" `Quick test_flat_is_legacy;
        Alcotest.test_case "sharded structure" `Quick test_sharded_structure;
        Alcotest.test_case "hierarchy parents" `Quick test_hierarchy_parents;
        Alcotest.test_case "explicit topology" `Quick test_explicit_topology;
        Alcotest.test_case "register joiner" `Quick test_register_joiner;
      ]
      @ List.map Gen.to_alcotest qcheck_topology );
    ( "core.partial",
      [
        Alcotest.test_case "unsubscribed site serves no reads" `Quick
          test_unsubscribed_site_serves_no_reads;
        Alcotest.test_case "unsubscribed site rejects updates" `Quick
          test_unsubscribed_site_rejects_updates;
        Alcotest.test_case "unsubscribed site receives no sync" `Quick
          test_unsubscribed_site_receives_no_sync;
        Alcotest.test_case "a notice goes only to a peer with news" `Quick
          test_notice_only_with_news;
        Alcotest.test_case "a lost notice is repaired later" `Quick test_lost_notice_recovers;
        Alcotest.test_case "AV circulates within the interest set" `Quick
          test_av_circulates_within_interest_set;
        Alcotest.test_case "sharded cluster converges" `Quick test_sharded_cluster_converges;
        Alcotest.test_case "set-up scales with the interest set" `Quick
          test_setup_scales_with_interest;
        Alcotest.test_case "a never-read set-up registers no series" `Quick
          test_unread_setup_registers_no_series;
      ]
      @ List.map Gen.to_alcotest qcheck_partial );
  ]
