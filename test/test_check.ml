(* The oracle's own tests: the reference model, hand-written histories
   with known verdicts, clean end-to-end runs that must be accepted, and
   the mutation suite — each test-only fault flag replays a scenario the
   checker must convict. A checker that never rejects anything is vacuous;
   this suite is what makes its acceptances meaningful. *)

open Avdb_sim
open Avdb_core
open Avdb_check
open Avdb_chaos

let at = Time.of_us

let has p (verdict : Checker.verdict) = List.exists p verdict.Checker.violations

let check_convicts name p verdict =
  Alcotest.(check bool) (name ^ ": rejected") false (Checker.ok verdict);
  Alcotest.(check bool) (name ^ ": right violation") true (has p verdict)

(* --- the reference model --- *)

let test_model_register () =
  let r = Model.init 10 in
  Alcotest.(check int) "read" 10 (Model.read r);
  (match Model.apply r ~delta:(-10) with
  | Some r' -> Alcotest.(check int) "drained" 0 (Model.read r')
  | None -> Alcotest.fail "legal update refused");
  Alcotest.(check bool) "oversell refused" true (Model.apply r ~delta:(-11) = None);
  (match Model.replay ~initial:5 [ -3; 4; -6 ] with
  | Ok v -> Alcotest.(check int) "replay" 0 v
  | Error _ -> Alcotest.fail "legal replay refused");
  match Model.replay ~initial:5 [ -3; -4; 100 ] with
  | Error (i, amount) ->
      Alcotest.(check int) "offending index" 1 i;
      Alcotest.(check int) "offending amount" 2 amount
  | Ok _ -> Alcotest.fail "oversell replay accepted"

let test_model_books () =
  let b = { Model.defined = 100; minted = 7; consumed = 30; live = 70 } in
  Alcotest.(check int) "deficit" 7 (Model.deficit b);
  Alcotest.(check bool) "leak accounted" true (Result.is_ok (Model.balance b ~leaked:7));
  Alcotest.(check bool) "leak mismatch" true (Result.is_error (Model.balance b ~leaked:0));
  let conjured = { b with Model.live = 120 } in
  Alcotest.(check bool) "negative deficit convicted" true
    (Result.is_error (Model.balance conjured ~leaked:0))

let test_model_sets () =
  let sorted = function Some l -> Some (List.sort compare l) | None -> None in
  Alcotest.(check (list int)) "prefix sums" [ 0; 2; 3; 5 ]
    (List.sort compare (Model.prefix_sums [ 3; -1; 3 ]));
  Alcotest.(check (option (list int))) "subset sums" (Some [ 0; 1; 2; 3 ])
    (sorted (Model.subset_sums [ 1; 2 ]));
  Alcotest.(check (option (list int))) "sum set" (Some [ 0; 5; 7; 12 ])
    (sorted (Model.sum_set [ [ 0; 5 ]; [ 0; 7 ] ]));
  Alcotest.(check (option (list int))) "cap refuses" None
    (Model.subset_sums ~cap:4 (List.init 20 (fun i -> 1 lsl i)))

(* --- hand-written histories --- *)

(* A one-site centralized world around non-regular item "x", initial 10. *)
let central_snapshot ~base_value =
  {
    Checker.mode = Config.Centralized;
    products = [ Product.non_regular "x" ~initial_amount:10 ];
    replicas = [ ("x", [ Some base_value ]) ];
    bases = [];
    books = [];
    granted = 0;
    received = 0;
    amnesiac = [];
  }

let test_accepts_linearizable () =
  let h = History.create () in
  let w = History.invoke h ~site:1 ~at:(at 0) (History.Update { item = "x"; delta = 5 }) in
  History.respond h w ~at:(at 10) (History.Applied Update.Central);
  let r = History.invoke h ~site:2 ~at:(at 20) (History.Read_auth { item = "x" }) in
  History.respond h r ~at:(at 30) (History.Read_value (Some 15));
  let v = Checker.check ~history:h (central_snapshot ~base_value:15) in
  Alcotest.(check bool) "accepted" true (Checker.ok v);
  Alcotest.(check int) "write, read and final read linearized" 3 v.Checker.stats.n_lin_ops

let test_rejects_non_linearizable () =
  let h = History.create () in
  let w = History.invoke h ~site:1 ~at:(at 0) (History.Update { item = "x"; delta = 5 }) in
  History.respond h w ~at:(at 10) (History.Applied Update.Central);
  (* Strictly after the write's response, yet shows the pre-write value. *)
  let r = History.invoke h ~site:2 ~at:(at 20) (History.Read_auth { item = "x" }) in
  History.respond h r ~at:(at 30) (History.Read_value (Some 10));
  check_convicts "stale strong read"
    (function Checker.Non_linearizable _ -> true | _ -> false)
    (Checker.check ~history:h (central_snapshot ~base_value:15))

let test_rejects_lost_write () =
  (* No client read at all: the committed write is missing from the end
     state, and only the virtual final read can notice. *)
  let h = History.create () in
  let w = History.invoke h ~site:1 ~at:(at 0) (History.Update { item = "x"; delta = 5 }) in
  History.respond h w ~at:(at 10) (History.Applied Update.Central);
  check_convicts "lost committed write"
    (function Checker.Non_linearizable _ -> true | _ -> false)
    (Checker.check ~history:h (central_snapshot ~base_value:10))

let test_rejects_double_response () =
  let h = History.create () in
  let w = History.invoke h ~site:1 ~at:(at 0) (History.Update { item = "x"; delta = 5 }) in
  History.respond h w ~at:(at 10) (History.Applied Update.Central);
  History.respond h w ~at:(at 20) (History.Applied Update.Central);
  check_convicts "double-fired continuation"
    (function Checker.Double_response _ -> true | _ -> false)
    (Checker.check ~history:h (central_snapshot ~base_value:15))

(* A two-site autonomous world around regular item "p", initial 10. *)
let autonomous_snapshot ?(books = { Model.defined = 10; minted = 0; consumed = 0; live = 10 })
    ~replicas () =
  {
    Checker.mode = Config.Autonomous;
    products = [ Product.regular "p" ~initial_amount:10 ];
    replicas = [ ("p", replicas) ];
    bases = [];
    books = [ ("p", books) ];
    granted = 0;
    received = 0;
    amnesiac = [];
  }

let delay_write h ~site ~at:t ~delta =
  let w = History.invoke h ~site ~at:(at t) (History.Update { item = "p"; delta }) in
  History.respond h w ~at:(at (t + 5)) (History.Applied Update.Local)

let sold_3 = { Model.defined = 10; minted = 0; consumed = 3; live = 7 }

let test_rejects_read_your_writes () =
  let h = History.create () in
  delay_write h ~site:1 ~at:0 ~delta:(-3);
  (* The same site then reads and sees none of its own committed write. *)
  let r = History.invoke h ~site:1 ~at:(at 20) (History.Read_local { item = "p" }) in
  History.respond h r ~at:(at 20) (History.Read_value (Some 10));
  check_convicts "forgotten own write"
    (function Checker.Stale_read _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~books:sold_3 ~replicas:[ Some 7; Some 7 ] ()))

let test_accepts_stale_other_site_read () =
  (* Same shape, but the reader is another site: missing a remote delta is
     exactly the staleness Delay Update licenses. *)
  let h = History.create () in
  delay_write h ~site:1 ~at:0 ~delta:(-3);
  let r = History.invoke h ~site:2 ~at:(at 20) (History.Read_local { item = "p" }) in
  History.respond h r ~at:(at 20) (History.Read_value (Some 10));
  let v = Checker.check ~history:h (autonomous_snapshot ~books:sold_3 ~replicas:[ Some 7; Some 7 ] ()) in
  Alcotest.(check bool) "licensed staleness accepted" true (Checker.ok v)

let test_rejects_divergence () =
  let h = History.create () in
  delay_write h ~site:1 ~at:0 ~delta:(-3);
  check_convicts "replicas disagree"
    (function Checker.Divergence _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~books:sold_3 ~replicas:[ Some 7; Some 10 ] ()))

let test_rejects_wrong_agreement () =
  (* Replicas agree — on a value the applied updates cannot produce. *)
  let h = History.create () in
  delay_write h ~site:1 ~at:0 ~delta:(-3);
  check_convicts "agreement on the wrong value"
    (function Checker.Divergence _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~books:sold_3 ~replicas:[ Some 9; Some 9 ] ()))

let test_rejects_negative_stock () =
  let h = History.create () in
  check_convicts "negative stock"
    (function Checker.Negative_amount _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~replicas:[ Some (-1); Some (-1) ] ()))

let test_rejects_av_imbalance () =
  let h = History.create () in
  let conjured = { Model.defined = 10; minted = 0; consumed = 0; live = 15 } in
  check_convicts "conjured AV"
    (function Checker.Av_imbalance _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~books:conjured ~replicas:[ Some 10; Some 10 ] ()))

(* --- end-to-end: scripted runs through the instrumented wrappers --- *)

let scripted_config ?sync_interval ?(allocation = Config.Even) mode =
  let base = Config.default in
  {
    base with
    Config.n_sites = 3;
    products = Product.catalogue ~n_regular:2 ~n_non_regular:1 ~initial_amount:40;
    mode;
    allocation;
    sync_interval = (match sync_interval with Some s -> s | None -> base.Config.sync_interval);
  }

type scripted = {
  cluster : Cluster.t;
  history : History.t;
  submit : int -> string -> int -> unit;
  read_local : int -> string -> int option;
  read_auth : int -> string -> unit;
}

let scripted config =
  let cluster = Cluster.create config in
  let engine = Cluster.engine cluster in
  let h = History.create () in
  let site i = (Cluster.sites cluster).(i) in
  let submit i item delta =
    History.submit_update h ~engine (site i) ~item ~delta (fun _ -> ());
    Cluster.run cluster
  in
  let read_local i item = History.read_local h ~engine (site i) ~item in
  let read_auth i item =
    History.read_authoritative h ~engine (site i) ~item (fun _ -> ());
    Cluster.run cluster
  in
  { cluster; history = h; submit; read_local; read_auth }

let default_script s =
  s.submit 1 "product0" (-5);
  ignore (s.read_local 1 "product0");
  s.submit 2 "product0" (-3);
  s.submit 0 "product1" 10;
  s.submit 1 "special0" (-4);
  s.submit 2 "special0" 6;
  s.read_auth 2 "special0";
  s.read_auth 1 "product1";
  ignore (s.read_local 0 "product1")

let finish s =
  if (Cluster.config s.cluster).Config.mode = Config.Autonomous then
    Cluster.flush_all_syncs s.cluster;
  let snapshot = Checker.snapshot_of_cluster s.cluster in
  Checker.check ~quiescent:true ~history:s.history snapshot

let expect_clean tag verdict =
  if not (Checker.ok verdict) then
    Alcotest.failf "%s: clean run convicted:@ %a" tag Checker.pp_verdict verdict

let test_clean_autonomous_run () =
  let s = scripted (scripted_config Config.Autonomous) in
  default_script s;
  let v = finish s in
  expect_clean "autonomous" v;
  Alcotest.(check int) "all ops recorded" 9 v.Checker.stats.n_entries;
  Alcotest.(check bool) "replica reads validated" true (v.Checker.stats.n_replica_reads > 0)

let test_clean_centralized_run () =
  let s = scripted (scripted_config Config.Centralized) in
  default_script s;
  let v = finish s in
  expect_clean "centralized" v;
  (* In the baseline every item is strong and reads join the search. *)
  Alcotest.(check bool) "strong ops linearized" true (v.Checker.stats.n_lin_ops >= 9)

let clean_nemesis_seeds = [ 1; 3; 4; 9 ]
(* Also the seeds the unilateral-abort mutation convicts below: their
   failures there are attributable to the mutation alone. *)

let test_clean_nemesis_oracle () =
  List.iter
    (fun seed ->
      let report =
        Nemesis.check ~shrink:false { (Nemesis.default ~seed) with Nemesis.oracle = true }
      in
      if not (Nemesis.passed report) then
        Alcotest.failf "seed %d: clean oracle run failed:@ %a" seed Nemesis.pp_report report;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d judged entries" seed)
        true
        (report.Nemesis.outcome.Nemesis.stats.Nemesis.oracle_entries > 0))
    clean_nemesis_seeds

(* --- the mutation suite: every seeded fault must be convicted --- *)

let test_mutation_names () =
  List.iter
    (fun m ->
      match Mutation.of_name (Mutation.name m) with
      | Ok m' -> Alcotest.(check bool) (Mutation.name m) true (m = m')
      | Error e -> Alcotest.fail e)
    Mutation.all;
  Alcotest.(check bool) "unknown rejected" true (Result.is_error (Mutation.of_name "bogus"))

let with_mutation m f () =
  Mutation.reset ();
  Mutation.enable m;
  Fun.protect ~finally:Mutation.reset f

let test_mutation_lossy_sync =
  with_mutation Mutation.Lossy_sync (fun () ->
      (* Receivers record the sync counters but drop the data: after the
         final flush the origins disagree with everyone else. *)
      let s = scripted (scripted_config Config.Autonomous) in
      s.submit 1 "product0" (-5);
      s.submit 2 "product0" (-3);
      check_convicts "lossy-sync"
        (function Checker.Divergence _ -> true | _ -> false)
        (finish s))

let test_mutation_double_deposit =
  with_mutation Mutation.Double_deposit (fun () ->
      (* All AV starts at the base, so the retailer's sale needs a grant —
         which it credits twice, conjuring volume from nothing. *)
      let s = scripted (scripted_config ~allocation:Config.All_at_base Config.Autonomous) in
      s.submit 1 "product0" (-10);
      check_convicts "double-deposit"
        (function Checker.Av_imbalance _ -> true | _ -> false)
        (finish s))

let test_mutation_stale_reads =
  with_mutation Mutation.Stale_reads (fun () ->
      (* The base serves reads from the initial catalogue: a read strictly
         after an applied update still shows the pre-update value. *)
      let s = scripted (scripted_config Config.Centralized) in
      s.submit 1 "product0" 5;
      s.read_auth 1 "product0";
      check_convicts "stale-reads"
        (function Checker.Non_linearizable _ -> true | _ -> false)
        (finish s))

let test_mutation_forget_own_writes =
  with_mutation Mutation.Forget_own_writes (fun () ->
      (* Lazy sync off: the delta stays pending, and the mutated local read
         subtracts it — read-your-writes breaks. *)
      let s = scripted (scripted_config ~sync_interval:None Config.Autonomous) in
      s.submit 1 "product0" (-5);
      let seen = s.read_local 1 "product0" in
      Alcotest.(check (option int)) "read forgot the session's write" (Some 40) seen;
      check_convicts "forget-own-writes"
        (function Checker.Stale_read _ -> true | _ -> false)
        (finish s))

(* --- epoch-quorum commit under the oracle --- *)

let epoch_scripted_config =
  {
    Config.default with
    Config.n_sites = 3;
    products = Product.mixed ~n_regular:0 ~n_non_regular:0 ~n_epoch:1 ~initial_amount:40;
    mode = Config.Autonomous;
  }

let test_clean_epoch_run () =
  let s = scripted epoch_scripted_config in
  s.submit 1 "epoch0" (-5);
  ignore (s.read_local 1 "epoch0");
  s.submit 2 "epoch0" (-3);
  s.submit 0 "epoch0" 10;
  ignore (s.read_local 2 "epoch0");
  let v = finish s in
  expect_clean "epoch" v;
  Alcotest.(check bool) "epoch reads validated" true (v.Checker.stats.n_replica_reads > 0)

let test_mutation_epoch_double_seal =
  with_mutation Mutation.Epoch_double_seal (fun () ->
      (* The sequencer applies every sealed delta twice on its own replica
         while the broadcast carries the honest seal: the proposer's copy
         diverges from the other subscribers at quiescence. *)
      let s = scripted epoch_scripted_config in
      s.submit 1 "epoch0" (-10);
      check_convicts "epoch-double-seal"
        (function Checker.Divergence _ -> true | _ -> false)
        (finish s))

let test_mutation_epoch_drop_intent =
  with_mutation Mutation.Epoch_drop_intent (fun () ->
      (* Non-proposer subscribers silently skip the first intent of every
         seal they apply: their replicas miss a committed delta. *)
      let s = scripted epoch_scripted_config in
      s.submit 1 "epoch0" (-10);
      check_convicts "epoch-drop-intent"
        (function Checker.Divergence _ -> true | _ -> false)
        (finish s))

let test_mutation_unilateral_abort =
  with_mutation Mutation.Unilateral_abort (fun () ->
      (* Needs an in-doubt window, so it runs under the nemesis: a prepared
         participant whose decision timer fires gives up unilaterally while
         the rest commit. All these seeds pass without the mutation (the
         clean sweep above); at least one must now fail. *)
      let convicted =
        List.exists
          (fun seed ->
            let report =
              Nemesis.check ~shrink:false
                { (Nemesis.default ~seed) with Nemesis.oracle = true }
            in
            not (Nemesis.passed report))
          clean_nemesis_seeds
      in
      Alcotest.(check bool) "unilateral abort convicted" true convicted)

let suites =
  [
    ( "check",
      [
        Alcotest.test_case "model register" `Quick test_model_register;
        Alcotest.test_case "model books" `Quick test_model_books;
        Alcotest.test_case "model reachable sets" `Quick test_model_sets;
        Alcotest.test_case "accepts linearizable" `Quick test_accepts_linearizable;
        Alcotest.test_case "rejects non-linearizable" `Quick test_rejects_non_linearizable;
        Alcotest.test_case "rejects lost write" `Quick test_rejects_lost_write;
        Alcotest.test_case "rejects double response" `Quick test_rejects_double_response;
        Alcotest.test_case "rejects broken read-your-writes" `Quick test_rejects_read_your_writes;
        Alcotest.test_case "accepts licensed staleness" `Quick test_accepts_stale_other_site_read;
        Alcotest.test_case "rejects divergence" `Quick test_rejects_divergence;
        Alcotest.test_case "rejects wrong agreement" `Quick test_rejects_wrong_agreement;
        Alcotest.test_case "rejects negative stock" `Quick test_rejects_negative_stock;
        Alcotest.test_case "rejects AV imbalance" `Quick test_rejects_av_imbalance;
        Alcotest.test_case "clean autonomous run" `Quick test_clean_autonomous_run;
        Alcotest.test_case "clean centralized run" `Quick test_clean_centralized_run;
        Alcotest.test_case "clean nemesis oracle" `Quick test_clean_nemesis_oracle;
        Alcotest.test_case "mutation names" `Quick test_mutation_names;
        Alcotest.test_case "mutation: lossy-sync" `Quick test_mutation_lossy_sync;
        Alcotest.test_case "mutation: double-deposit" `Quick test_mutation_double_deposit;
        Alcotest.test_case "mutation: stale-reads" `Quick test_mutation_stale_reads;
        Alcotest.test_case "mutation: forget-own-writes" `Quick test_mutation_forget_own_writes;
        Alcotest.test_case "clean epoch run" `Quick test_clean_epoch_run;
        Alcotest.test_case "mutation: epoch-double-seal" `Quick test_mutation_epoch_double_seal;
        Alcotest.test_case "mutation: epoch-drop-intent" `Quick test_mutation_epoch_drop_intent;
        Alcotest.test_case "mutation: unilateral-abort" `Quick test_mutation_unilateral_abort;
      ] );
  ]
