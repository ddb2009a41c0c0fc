open Avdb_core

let make ?(sync_interval = None) () =
  Cluster.create
    {
      Config.default with
      Config.products = [ Product.regular "widget" ~initial_amount:120 ];
      sync_interval;
      seed = 23;
    }

let apply cluster site delta =
  Site.submit_update (Cluster.site cluster site) ~item:"widget" ~delta (fun _ -> ());
  Cluster.run cluster

let read_auth cluster site ~item =
  let result = ref None in
  Site.read_authoritative (Cluster.site cluster site) ~item (fun r -> result := Some r);
  Cluster.run cluster;
  match !result with Some r -> r | None -> Alcotest.fail "read never completed"

let test_local_read_is_free_and_stale () =
  let cluster = make () in
  apply cluster 1 (-30);
  (* Retailer sees its own write immediately... *)
  Alcotest.(check (option int)) "read-your-writes" (Some 90)
    (Site.read_local (Cluster.site cluster 1) ~item:"widget");
  (* ...while the base replica is stale until a sync. *)
  Alcotest.(check (option int)) "base stale" (Some 120)
    (Site.read_local (Cluster.site cluster 0) ~item:"widget");
  Alcotest.(check int) "no messages" 0 (Cluster.total_correspondences cluster);
  Cluster.flush_all_syncs cluster;
  Alcotest.(check (option int)) "base fresh after sync" (Some 90)
    (Site.read_local (Cluster.site cluster 0) ~item:"widget")

let test_authoritative_read_sees_base () =
  let cluster = make () in
  apply cluster 0 50;
  (* The retailer's replica is stale, but an authoritative read is not. *)
  Alcotest.(check (option int)) "stale local" (Some 120)
    (Site.read_local (Cluster.site cluster 1) ~item:"widget");
  (match read_auth cluster 1 ~item:"widget" with
  | Ok (Some 170) -> ()
  | r ->
      Alcotest.failf "expected Ok 170, got %s"
        (match r with
        | Ok (Some n) -> string_of_int n
        | Ok None -> "None"
        | Error _ -> "error"));
  Alcotest.(check int) "one correspondence" 1 (Cluster.total_correspondences cluster)

let test_authoritative_read_at_base_is_free () =
  let cluster = make () in
  (match read_auth cluster 0 ~item:"widget" with
  | Ok (Some 120) -> ()
  | _ -> Alcotest.fail "expected 120");
  Alcotest.(check int) "no messages from base" 0 (Cluster.total_correspondences cluster)

let test_authoritative_read_unknown_item () =
  let cluster = make () in
  match read_auth cluster 2 ~item:"nope" with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected Ok None for unknown item"

let test_authoritative_read_base_down () =
  let cluster = make () in
  Site.crash (Cluster.site cluster 0);
  match read_auth cluster 1 ~item:"widget" with
  | Error Update.Unreachable -> ()
  | _ -> Alcotest.fail "expected Unreachable with base down"

let test_read_at_down_site_rejected () =
  let cluster = make () in
  Site.crash (Cluster.site cluster 1);
  match read_auth cluster 1 ~item:"widget" with
  | Error Update.Unreachable -> ()
  | _ -> Alcotest.fail "expected Unreachable at down site"

(* A quarantined base answers its own authoritative reads the way it
   answers a retailer's: with nothing. Site 0 (the base) loses its whole
   protocol log after an Immediate Update committed, so it goes amnesiac
   and quarantines its non-regular replica; the row still holds 95, but
   nothing vouches for it until the repair lands. *)
let test_authoritative_read_at_quarantined_base () =
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.n_sites = 4;
        products = Product.catalogue ~n_regular:1 ~n_non_regular:1 ~initial_amount:100;
        seed = 7;
      }
  in
  let item = "special0" in
  let base = Cluster.site cluster 0 in
  Site.submit_update (Cluster.site cluster 1) ~item ~delta:(-5) (fun _ -> ());
  Cluster.run cluster;
  Site.arm_disk_fault base ~target:`Txn (Avdb_store.Disk_fault.Lost_segment { pos = 0. });
  Site.crash base;
  Site.recover base;
  Alcotest.(check bool) "base quarantined" true (Site.is_quarantined base ~item);
  Alcotest.(check (option int)) "local read hides the row" None (Site.read_local base ~item);
  let at_base = ref None in
  Site.read_authoritative base ~item (fun r -> at_base := Some r);
  (match !at_base with
  | Some (Ok None) -> ()
  | Some (Ok (Some n)) -> Alcotest.failf "served %d from an untrusted row" n
  | Some (Error _) | None -> Alcotest.fail "expected Ok None at once");
  (* the repair restores availability with the committed value *)
  Cluster.run cluster;
  match read_auth cluster 0 ~item with
  | Ok (Some 95) -> ()
  | _ -> Alcotest.fail "expected Ok 95 after repair"

let suites =
  [
    ( "core.reads",
      [
        Alcotest.test_case "local read free and stale" `Quick test_local_read_is_free_and_stale;
        Alcotest.test_case "authoritative sees base" `Quick test_authoritative_read_sees_base;
        Alcotest.test_case "authoritative at base is free" `Quick test_authoritative_read_at_base_is_free;
        Alcotest.test_case "authoritative unknown item" `Quick test_authoritative_read_unknown_item;
        Alcotest.test_case "authoritative with base down" `Quick test_authoritative_read_base_down;
        Alcotest.test_case "read at down site" `Quick test_read_at_down_site_rejected;
        Alcotest.test_case "authoritative at quarantined base" `Quick
          test_authoritative_read_at_quarantined_base;
      ] );
  ]
