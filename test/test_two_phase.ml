open Avdb_net
open Avdb_txn

let addr = Address.of_int

module C = Two_phase.Coordinator

let action =
  let pp ppf = function
    | C.Broadcast_prepare -> Format.pp_print_string ppf "prepare"
    | C.Broadcast_decision d -> Format.fprintf ppf "decision(%a)" Two_phase.pp_decision d
    | C.Completed d -> Format.fprintf ppf "completed(%a)" Two_phase.pp_decision d
    | C.Cleanup d -> Format.fprintf ppf "cleanup(%a)" Two_phase.pp_decision d
  in
  Alcotest.testable pp ( = )

(* Paper topology: coordinator = retailer site 1, participants = base site 0
   and retailer site 2; base ack signals completion. *)
let make () = C.create ~txid:7 ~participants:[ addr 0; addr 2 ] ~base:(addr 0)

let test_commit_flow () =
  let c = make () in
  Alcotest.(check (list action)) "start broadcasts prepare" [ C.Broadcast_prepare ]
    (C.start c ~local_vote:Two_phase.Ready);
  Alcotest.(check (list action)) "first vote pending" [] (C.on_vote c ~from:(addr 2) Two_phase.Ready);
  Alcotest.(check (list action)) "all votes -> commit"
    [ C.Broadcast_decision Two_phase.Commit ]
    (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  Alcotest.(check (option bool)) "decision" (Some true)
    (Option.map (fun d -> d = Two_phase.Commit) (C.decision c));
  (* Non-base ack: nothing user-visible. *)
  Alcotest.(check (list action)) "retailer ack silent" [] (C.on_ack c ~from:(addr 2));
  (* Base ack: completion + everyone acked -> cleanup. *)
  Alcotest.(check (list action)) "base ack completes"
    [ C.Completed Two_phase.Commit; C.Cleanup Two_phase.Commit ]
    (C.on_ack c ~from:(addr 0));
  Alcotest.(check bool) "done" true (C.is_done c)

let test_base_ack_before_others () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 2) Two_phase.Ready);
  Alcotest.(check (list action)) "base ack -> completed, not yet cleanup"
    [ C.Completed Two_phase.Commit ]
    (C.on_ack c ~from:(addr 0));
  Alcotest.(check bool) "not done yet" false (C.is_done c);
  Alcotest.(check (list action)) "last ack -> cleanup only"
    [ C.Cleanup Two_phase.Commit ]
    (C.on_ack c ~from:(addr 2))

let test_refuse_aborts_immediately () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  Alcotest.(check (list action)) "refuse -> abort broadcast"
    [ C.Broadcast_decision Two_phase.Abort ]
    (C.on_vote c ~from:(addr 2) Two_phase.Refuse);
  (* A straggler Ready vote after the decision is ignored. *)
  Alcotest.(check (list action)) "straggler ignored" [] (C.on_vote c ~from:(addr 0) Two_phase.Ready)

let test_local_refuse () =
  let c = make () in
  (* Coordinator's own site cannot apply: abort without any prepare. *)
  Alcotest.(check (list action)) "local refuse"
    [ C.Broadcast_decision Two_phase.Abort ]
    (C.start c ~local_vote:Two_phase.Refuse)

let test_ack_timeout () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 2) Two_phase.Ready);
  ignore (C.on_ack c ~from:(addr 2));
  (* Base never acks; give up. Completion must still be reported exactly
     once. *)
  Alcotest.(check (list action)) "ack timeout completes and cleans"
    [ C.Completed Two_phase.Commit; C.Cleanup Two_phase.Commit ]
    (C.on_ack_timeout c);
  Alcotest.(check bool) "done" true (C.is_done c)

let test_no_participants () =
  let c = C.create ~txid:1 ~participants:[] ~base:(addr 0) in
  Alcotest.(check (list action)) "solo commit"
    [ C.Completed Two_phase.Commit; C.Cleanup Two_phase.Commit ]
    (C.start c ~local_vote:Two_phase.Ready)

let test_coordinator_is_base () =
  (* Base not among remote participants: completion at decision time. *)
  let c = C.create ~txid:2 ~participants:[ addr 1; addr 2 ] ~base:(addr 0) in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 1) Two_phase.Ready);
  Alcotest.(check (list action)) "decision includes completion"
    [ C.Broadcast_decision Two_phase.Commit; C.Completed Two_phase.Commit ]
    (C.on_vote c ~from:(addr 2) Two_phase.Ready);
  Alcotest.(check (list action)) "acks then cleanup only" []
    (C.on_ack c ~from:(addr 1));
  Alcotest.(check (list action)) "last ack"
    [ C.Cleanup Two_phase.Commit ]
    (C.on_ack c ~from:(addr 2))

let test_duplicate_and_foreign_votes_ignored () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  Alcotest.(check (list action)) "duplicate" [] (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  Alcotest.(check (list action)) "foreign site" [] (C.on_vote c ~from:(addr 9) Two_phase.Ready);
  Alcotest.(check bool) "still undecided" true (C.decision c = None)

let test_double_start_rejected () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  match C.start c ~local_vote:Two_phase.Ready with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double start accepted"

(* --- recovered coordinator --- *)

let test_recovered_coordinator () =
  let c =
    C.recovered ~txid:9 ~participants:[ addr 0; addr 2 ] ~base:(addr 0) Two_phase.Commit
  in
  Alcotest.(check bool) "decision preserved" true (C.decision c = Some Two_phase.Commit);
  Alcotest.(check bool) "not done until acks" false (C.is_done c);
  (* Re-broadcast repeats while acks are outstanding and never Completes
     (the submitting client died with the crashed incarnation). *)
  Alcotest.(check (list action)) "rebroadcast"
    [ C.Broadcast_decision Two_phase.Commit ]
    (C.rebroadcast c);
  Alcotest.(check (list action)) "rebroadcast again"
    [ C.Broadcast_decision Two_phase.Commit ]
    (C.rebroadcast c);
  Alcotest.(check (list action)) "first ack silent" [] (C.on_ack c ~from:(addr 2));
  Alcotest.(check (list action)) "last ack cleans up, no Completed"
    [ C.Cleanup Two_phase.Commit ]
    (C.on_ack c ~from:(addr 0));
  Alcotest.(check bool) "done" true (C.is_done c);
  Alcotest.(check (list action)) "rebroadcast after done" [] (C.rebroadcast c)

let test_recovered_coordinator_no_participants () =
  let c = C.recovered ~txid:9 ~participants:[] ~base:(addr 0) Two_phase.Abort in
  Alcotest.(check bool) "immediately done" true (C.is_done c);
  Alcotest.(check (list action)) "nothing to rebroadcast" [] (C.rebroadcast c)

(* --- Txn_log --- *)

let test_txn_log () =
  let open Avdb_sim in
  let log = Txn_log.create () in
  Txn_log.record_start log ~txid:1 ~coordinator:(addr 1) ~cohort:[ addr 0; addr 2 ]
    ~item:"x" ~delta:(-5) ~at:(Time.of_us 10);
  Txn_log.record_start log ~txid:2 ~coordinator:(addr 2) ~cohort:[ addr 0; addr 1 ]
    ~item:"y" ~delta:3 ~at:(Time.of_us 20);
  Alcotest.(check int) "in flight" 2 (Txn_log.in_flight log);
  Alcotest.(check int) "in doubt" 2 (List.length (Txn_log.in_doubt log));
  Txn_log.record_outcome log ~txid:1 Two_phase.Commit ~at:(Time.of_us 30);
  Txn_log.record_outcome log ~txid:2 Two_phase.Abort ~at:(Time.of_us 40);
  (* Second outcome is ignored. *)
  Txn_log.record_outcome log ~txid:1 Two_phase.Abort ~at:(Time.of_us 50);
  Alcotest.(check int) "committed" 1 (Txn_log.committed log);
  Alcotest.(check int) "aborted" 1 (Txn_log.aborted log);
  Alcotest.(check int) "none in flight" 0 (Txn_log.in_flight log);
  Alcotest.(check int) "none in doubt" 0 (List.length (Txn_log.in_doubt log));
  (match Txn_log.find log ~txid:1 with
  | Some e ->
      Alcotest.(check bool) "kept first outcome" true (e.Txn_log.outcome = Some Two_phase.Commit);
      Alcotest.(check (option int)) "finish time" (Some 30)
        (Option.map Time.to_us e.Txn_log.finished_at);
      Alcotest.(check int) "cohort logged" 2 (List.length e.Txn_log.cohort);
      Alcotest.(check bool) "not ended yet" false e.Txn_log.ended
  | None -> Alcotest.fail "entry missing");
  Txn_log.record_end log ~txid:1 ~at:(Time.of_us 60);
  (match Txn_log.find log ~txid:1 with
  | Some e -> Alcotest.(check bool) "ended" true e.Txn_log.ended
  | None -> Alcotest.fail "entry missing");
  Txn_log.record_outcome log ~txid:99 Two_phase.Commit ~at:(Time.of_us 1);
  Alcotest.(check int) "unknown txid ignored" 1 (Txn_log.committed log);
  Alcotest.(check int) "max txid" 2 (Txn_log.max_txid log);
  Alcotest.(check bool) "not refused" false (Txn_log.is_refused log ~txid:7);
  Txn_log.record_refused log ~txid:7 ~at:(Time.of_us 70);
  Alcotest.(check bool) "refused pledge durable" true (Txn_log.is_refused log ~txid:7);
  match
    Txn_log.record_start log ~txid:1 ~coordinator:(addr 1) ~cohort:[] ~item:"x" ~delta:0
      ~at:Time.zero
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate start accepted"

let test_txn_log_serialisation () =
  let open Avdb_sim in
  let log = Txn_log.create () in
  Txn_log.record_start log ~txid:1_000_003 ~coordinator:(addr 1)
    ~cohort:[ addr 0; addr 2 ] ~item:"weird|item%name" ~delta:(-5) ~at:(Time.of_us 10);
  Txn_log.record_outcome log ~txid:1_000_003 Two_phase.Commit ~at:(Time.of_us 30);
  Txn_log.record_end log ~txid:1_000_003 ~at:(Time.of_us 40);
  Txn_log.record_refused log ~txid:55 ~at:(Time.of_us 50);
  let s = Txn_log.to_string log in
  (match Txn_log.of_string s with
  | Error e -> Alcotest.fail (Avdb_store.Corruption.to_string e)
  | Ok log' ->
      Alcotest.(check int) "record count survives" (Txn_log.length log)
        (Txn_log.length log');
      Alcotest.(check bool) "refusal survives" true (Txn_log.is_refused log' ~txid:55);
      (match Txn_log.find log' ~txid:1_000_003 with
      | Some e ->
          Alcotest.(check string) "item" "weird|item%name" e.Txn_log.item;
          Alcotest.(check bool) "outcome" true (e.Txn_log.outcome = Some Two_phase.Commit);
          Alcotest.(check bool) "ended" true e.Txn_log.ended;
          Alcotest.(check int) "cohort" 2 (List.length e.Txn_log.cohort)
      | None -> Alcotest.fail "entry lost"));
  (* A torn final line is a crash mid-append: recover the prefix. *)
  let torn = s ^ "\nO|1_000" in
  (match Txn_log.of_string torn with
  | Error e -> Alcotest.fail ("torn tail should recover: " ^ Avdb_store.Corruption.to_string e)
  | Ok log' -> Alcotest.(check int) "prefix recovered" (Txn_log.length log) (Txn_log.length log'));
  (* The same garbage mid-log is corruption and must fail. *)
  match Txn_log.of_string ("O|1_000\n" ^ s) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-log corruption accepted"

(* --- Txn_log indexes against a list scan ---

   Random record sequences over a few txids, items and epochs, with
   repeats and lower ballots, applied through the record_* functions. The
   reference keeps the records a log must append, decides every append
   and answers every query by scanning that list; the log's indexes must
   agree with it, before and after a serialisation round trip. *)

let txn_log_record_gen =
  let open QCheck.Gen in
  let open Avdb_sim in
  let txid = int_range 1 8 in
  let item = oneofl [ "a"; "b"; "c|d" ] in
  let epoch = int_range 1 6 in
  let ballot = int_range 0 4 in
  let at = map Time.of_us (int_range 0 1_000) in
  let site = map addr (int_range 0 3) in
  let seal =
    list_size (int_range 0 3)
      (map3 (fun i_txid i_origin i_delta -> { Txn_log.i_txid; i_origin; i_delta }) txid site
         (int_range (-5) 5))
  in
  frequency
    [
      ( 2,
        map3
          (fun (txid, coordinator) (cohort, item) (delta, at) ->
            Txn_log.Start { txid; coordinator; cohort; item; delta; at })
          (pair txid site)
          (pair (list_size (int_range 0 3) site) item)
          (pair (int_range (-5) 5) at) );
      ( 2,
        map3
          (fun txid decision at -> Txn_log.Outcome { txid; decision; at })
          txid
          (oneofl [ Two_phase.Commit; Two_phase.Abort ])
          at );
      (1, map2 (fun txid at -> Txn_log.End { txid; at }) txid at);
      (1, map2 (fun txid at -> Txn_log.Refused { txid; at }) txid at);
      ( 2,
        map3
          (fun (txid, origin) (item, delta) at -> Txn_log.Intent { txid; origin; item; delta; at })
          (pair txid site) (pair item (int_range (-5) 5)) at );
      ( 3,
        map3
          (fun (item, epoch) (ballot, seal) at ->
            Txn_log.Epoch_accept { item; epoch; ballot; seal; at })
          (pair item epoch) (pair ballot seal) at );
      ( 3,
        map3
          (fun (item, epoch) seal at -> Txn_log.Epoch_seal { item; epoch; seal; at })
          (pair item epoch) seal at );
      ( 2,
        map3
          (fun (item, epoch) ballot at -> Txn_log.Epoch_promise { item; epoch; ballot; at })
          (pair item epoch) ballot at );
      (1, map3 (fun item epoch at -> Txn_log.Epoch_floor { item; epoch; at }) item epoch at);
    ]

(* The reference: [logged] holds the appended records, oldest first. *)
let ref_started logged txid =
  List.exists (function Txn_log.Start s -> s.txid = txid | _ -> false) logged

let ref_floor logged item =
  List.fold_left
    (fun f -> function
      | Txn_log.Epoch_floor r when r.item = item -> Stdlib.max f r.epoch
      | _ -> f)
    0 logged

let ref_seal logged ~item ~epoch =
  List.find_map
    (function
      | Txn_log.Epoch_seal r when r.item = item && r.epoch = epoch -> Some r.seal | _ -> None)
    logged

let ref_accept logged ~item ~epoch =
  List.fold_left
    (fun best -> function
      | Txn_log.Epoch_accept r when r.item = item && r.epoch = epoch -> (
          match best with
          | Some (b, _) when b >= r.ballot -> best
          | Some _ | None -> Some (r.ballot, r.seal))
      | _ -> best)
    None logged

let ref_promised logged ~item ~epoch =
  List.fold_left
    (fun best -> function
      | Txn_log.Epoch_promise r when r.item = item && r.epoch = epoch -> (
          match best with Some b when b >= r.ballot -> best | Some _ | None -> Some r.ballot)
      | _ -> best)
    None logged

(* Whether a log holding [logged] appends [r]. *)
let ref_appends logged r =
  let seen p = List.exists p logged in
  match r with
  | Txn_log.Start { txid; _ } -> not (ref_started logged txid)
  | Txn_log.Outcome { txid; _ } ->
      ref_started logged txid
      && not (seen (function Txn_log.Outcome o -> o.txid = txid | _ -> false))
  | Txn_log.End { txid; _ } ->
      ref_started logged txid && not (seen (function Txn_log.End e -> e.txid = txid | _ -> false))
  | Txn_log.Refused { txid; _ } ->
      not (seen (function Txn_log.Refused e -> e.txid = txid | _ -> false))
  | Txn_log.Intent { txid; _ } ->
      not (seen (function Txn_log.Intent i -> i.txid = txid | _ -> false))
  | Txn_log.Epoch_accept { item; epoch; ballot; _ } -> (
      match ref_accept logged ~item ~epoch with Some (b, _) -> b < ballot | None -> true)
  | Txn_log.Epoch_seal { item; epoch; _ } -> ref_seal logged ~item ~epoch = None
  | Txn_log.Epoch_promise { item; epoch; ballot; _ } -> (
      match ref_promised logged ~item ~epoch with Some b -> b < ballot | None -> true)
  | Txn_log.Epoch_floor { item; epoch; _ } -> epoch > ref_floor logged item

let ref_entries logged =
  let decided txid =
    List.find_map
      (function Txn_log.Outcome o when o.txid = txid -> Some (o.decision, o.at) | _ -> None)
      logged
  in
  List.filter_map
    (function
      | Txn_log.Start { txid; coordinator; cohort; item; delta; at } ->
          let decided = decided txid in
          Some
            {
              Txn_log.txid;
              coordinator;
              cohort;
              item;
              delta;
              started_at = at;
              outcome = Option.map fst decided;
              finished_at = Option.map snd decided;
              ended = List.exists (function Txn_log.End e -> e.txid = txid | _ -> false) logged;
            }
      | _ -> None)
    logged
  |> List.sort (fun a b -> Int.compare a.Txn_log.txid b.Txn_log.txid)

(* An intent is sealed once a seal logged after it contains its txid. *)
let ref_intents logged =
  let rec scan acc = function
    | [] -> acc
    | Txn_log.Intent { txid; origin; item; delta; at } :: later ->
        let in_sealed =
          List.exists
            (function
              | Txn_log.Epoch_seal s ->
                  List.exists (fun i -> i.Txn_log.i_txid = txid) s.seal
              | _ -> false)
            later
        in
        scan
          ({ Txn_log.in_txid = txid; in_origin = origin; in_item = item; in_delta = delta;
             in_at = at; in_sealed }
          :: acc)
          later
    | _ :: later -> scan acc later
  in
  List.sort (fun a b -> Int.compare a.Txn_log.in_txid b.Txn_log.in_txid) (scan [] logged)

let ref_epoch_seals logged =
  List.filter_map
    (function Txn_log.Epoch_seal { item; epoch; seal; _ } -> Some (item, epoch, seal) | _ -> None)
    logged
  |> List.sort (fun (a, e, _) (b, f, _) ->
         match String.compare a b with 0 -> Int.compare e f | c -> c)

(* Every query the indexes answer, over the generated ranges and one
   step past them, and an item no record names. *)
let txn_log_agrees log logged =
  let items = [ "a"; "b"; "c|d"; "never" ] and epochs = List.init 8 Fun.id in
  let per_item f = List.for_all f items in
  let per_epoch f = per_item (fun item -> List.for_all (f item) epochs) in
  Txn_log.records log = logged
  && per_epoch (fun item epoch ->
         Txn_log.epoch_seal log ~item ~epoch = ref_seal logged ~item ~epoch
         && Txn_log.epoch_accept log ~item ~epoch = ref_accept logged ~item ~epoch
         && Txn_log.epoch_promise log ~item ~epoch
            = Stdlib.max
                (Option.value ~default:0 (ref_promised logged ~item ~epoch))
                (match ref_accept logged ~item ~epoch with Some (b, _) -> b | None -> 0))
  && per_item (fun item ->
         let floor = ref_floor logged item in
         let rec contiguous e =
           if ref_seal logged ~item ~epoch:(e + 1) <> None then contiguous (e + 1) else e
         in
         Txn_log.epoch_floor log ~item = floor
         && Txn_log.max_contiguous_seal log ~item = contiguous floor)
  && Txn_log.epoch_seals log = ref_epoch_seals logged
  && Txn_log.entries log = ref_entries logged
  && Txn_log.intents log = ref_intents logged
  && Txn_log.unsealed_intents log
     = List.filter (fun i -> not i.Txn_log.in_sealed) (ref_intents logged)
  && List.for_all
       (fun txid ->
         Txn_log.is_refused log ~txid
         = List.exists (function Txn_log.Refused r -> r.txid = txid | _ -> false) logged)
       (List.init 10 Fun.id)

(* Apply [r] through its record_* function; [false] when the log's
   duplicate-start check disagrees with the reference. *)
let txn_log_apply log logged r =
  match r with
  | Txn_log.Start { txid; coordinator; cohort; item; delta; at } -> (
      match Txn_log.record_start log ~txid ~coordinator ~cohort ~item ~delta ~at with
      | () -> ref_appends logged r
      | exception Invalid_argument _ -> not (ref_appends logged r))
  | Txn_log.Outcome { txid; decision; at } ->
      Txn_log.record_outcome log ~txid decision ~at;
      true
  | Txn_log.End { txid; at } ->
      Txn_log.record_end log ~txid ~at;
      true
  | Txn_log.Refused { txid; at } ->
      Txn_log.record_refused log ~txid ~at;
      true
  | Txn_log.Intent { txid; origin; item; delta; at } ->
      Txn_log.record_intent log ~txid ~origin ~item ~delta ~at;
      true
  | Txn_log.Epoch_accept { item; epoch; ballot; seal; at } ->
      Txn_log.record_epoch_accept log ~item ~epoch ~ballot ~seal ~at;
      true
  | Txn_log.Epoch_seal { item; epoch; seal; at } ->
      Txn_log.record_epoch_seal log ~item ~epoch ~seal ~at;
      true
  | Txn_log.Epoch_promise { item; epoch; ballot; at } ->
      Txn_log.record_epoch_promise log ~item ~epoch ~ballot ~at;
      true
  | Txn_log.Epoch_floor { item; epoch; at } ->
      Txn_log.record_epoch_floor log ~item ~epoch ~at;
      true

let qcheck_tests =
  let open QCheck in
  (* Random vote/ack sequences: exactly one Completed, exactly one Cleanup,
     decision consistent (commit only if every participant voted ready
     before any refuse decision point). *)
  [
    Test.make ~name:"coordinator emits exactly one Completed and Cleanup" ~count:500
      (pair (int_range 0 5)
         (list_of_size Gen.(int_range 0 30) (pair (int_bound 5) (int_bound 2))))
      (fun (n_participants, events) ->
        let participants = List.init n_participants addr in
        let c = C.create ~txid:1 ~participants ~base:(addr 0) in
        let completed = ref 0 and cleanups = ref 0 in
        let run actions =
          List.iter
            (function C.Completed _ -> incr completed | C.Cleanup _ -> incr cleanups | _ -> ())
            actions
        in
        run (C.start c ~local_vote:Two_phase.Ready);
        List.iter
          (fun (site, kind) ->
            let from = addr site in
            match kind with
            | 0 -> run (C.on_vote c ~from Two_phase.Ready)
            | 1 -> run (C.on_vote c ~from Two_phase.Refuse)
            | _ -> run (C.on_ack c ~from))
          events;
        (* Force completion at the end, like a site shutting down: every
           unanswered prepare times out, which is a Refuse vote. *)
        run (C.on_ack_timeout c);
        (match C.decision c with
        | None ->
            List.iter (fun from -> run (C.on_vote c ~from Two_phase.Refuse)) participants;
            run (C.on_ack_timeout c)
        | Some _ -> ());
        !completed = 1 && !cleanups = 1 && C.is_done c);
    Test.make ~name:"txn log indexes agree with a list scan" ~count:300
      (make
         ~print:(fun rs -> String.concat "\n" (List.map Txn_log.encode_record rs))
         Gen.(list_size (int_range 0 60) txn_log_record_gen))
      (fun rs ->
        let log = Txn_log.create () in
        let logged =
          List.fold_left
            (fun logged r ->
              if not (txn_log_apply log logged r) then
                Test.fail_reportf "duplicate start of %s" (Txn_log.encode_record r);
              if ref_appends logged r then logged @ [ r ] else logged)
            [] rs
        in
        txn_log_agrees log logged
        &&
        match Txn_log.of_string (Txn_log.to_string log) with
        | Ok replayed -> txn_log_agrees replayed logged
        | Error e -> Test.fail_reportf "replay: %s" (Avdb_store.Corruption.to_string e));
  ]

let suites =
  [
    ( "txn.two_phase",
      [
        Alcotest.test_case "commit flow" `Quick test_commit_flow;
        Alcotest.test_case "base ack before others" `Quick test_base_ack_before_others;
        Alcotest.test_case "refuse aborts immediately" `Quick test_refuse_aborts_immediately;
        Alcotest.test_case "local refuse" `Quick test_local_refuse;
        Alcotest.test_case "ack timeout" `Quick test_ack_timeout;
        Alcotest.test_case "no participants" `Quick test_no_participants;
        Alcotest.test_case "coordinator is base" `Quick test_coordinator_is_base;
        Alcotest.test_case "duplicate/foreign votes" `Quick test_duplicate_and_foreign_votes_ignored;
        Alcotest.test_case "double start rejected" `Quick test_double_start_rejected;
        Alcotest.test_case "recovered coordinator" `Quick test_recovered_coordinator;
        Alcotest.test_case "recovered coordinator, no participants" `Quick
          test_recovered_coordinator_no_participants;
        Alcotest.test_case "txn log" `Quick test_txn_log;
        Alcotest.test_case "txn log serialisation" `Quick test_txn_log_serialisation;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
