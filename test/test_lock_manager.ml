open Avdb_sim
open Avdb_store

let t_us = Time.of_us

let make ?(timeout = Time.of_sec 1.) () =
  let engine = Engine.create ~seed:3 () in
  (engine, Lock_manager.create ~engine ~timeout)

let expect_grant tag outcome =
  match outcome with
  | Ok () -> ()
  | Error `Timeout -> Alcotest.failf "%s: unexpected timeout" tag

let test_immediate_grant () =
  let _, lm = make () in
  let granted = ref false in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (fun r ->
      expect_grant "x" r;
      granted := true);
  Alcotest.(check bool) "granted synchronously" true !granted;
  Alcotest.(check (option int)) "holder" (Some 1) (Lock_manager.holder lm ~key:"a")

let test_exclusive_blocks () =
  let engine, lm = make () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "first");
  let second = ref false in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun r ->
      expect_grant "second" r;
      second := true);
  Alcotest.(check bool) "second waits" false !second;
  Alcotest.(check int) "one waiting" 1 (Lock_manager.waiting lm ~key:"a");
  Lock_manager.release_all lm ~owner:1;
  Alcotest.(check bool) "granted on release" true !second;
  ignore (Engine.run engine);
  Alcotest.(check (option int)) "ownership moved" (Some 2) (Lock_manager.holder lm ~key:"a")

let test_fifo_no_barging () =
  (* 1 holds; 2 and 3 queue. The holder's own second request, made while
     they wait, must NOT overtake them even though it holds the key. *)
  let _, lm = make () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  let order = ref [] in
  let note owner r =
    expect_grant (string_of_int owner) r;
    order := owner :: !order
  in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (note 2);
  Lock_manager.acquire lm ~owner:3 ~key:"a" (note 3);
  Lock_manager.acquire lm ~owner:1 ~key:"a" (note 1);
  Alcotest.(check (list int)) "nobody granted yet" [] !order;
  Alcotest.(check int) "three waiting" 3 (Lock_manager.waiting lm ~key:"a");
  Lock_manager.release_all lm ~owner:2;
  Alcotest.(check (list int)) "a dropped request is never granted" [] !order;
  Alcotest.(check (option int)) "still the first holder" (Some 1)
    (Lock_manager.holder lm ~key:"a");
  (* 1's release_all drops its queued request too, so ask again. *)
  Lock_manager.acquire lm ~owner:4 ~key:"a" (note 4);
  Lock_manager.release_all lm ~owner:1;
  Alcotest.(check (list int)) "oldest waiter first" [ 3 ] !order;
  Lock_manager.release_all lm ~owner:3;
  Alcotest.(check (list int)) "then the next" [ 4; 3 ] !order

let test_reentrant () =
  let _, lm = make () in
  let grants = ref 0 in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (fun _ -> incr grants);
  Lock_manager.acquire lm ~owner:1 ~key:"a" (fun _ -> incr grants);
  Lock_manager.acquire lm ~owner:1 ~key:"a" (fun _ -> incr grants);
  Alcotest.(check int) "re-grants immediately" 3 !grants;
  Alcotest.(check (option int)) "one holder" (Some 1) (Lock_manager.holder lm ~key:"a");
  Lock_manager.release_all lm ~owner:1;
  Alcotest.(check bool) "one release frees it" false (Lock_manager.is_held lm ~key:"a")

let test_timeout () =
  let engine, lm = make ~timeout:(t_us 100) () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  let outcome = ref None in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun r -> outcome := Some r);
  ignore (Engine.run engine);
  (match !outcome with
  | Some (Error `Timeout) -> ()
  | _ -> Alcotest.fail "expected timeout");
  Alcotest.(check int) "the expired request waits no more" 0 (Lock_manager.waiting lm ~key:"a");
  (* The timed-out waiter must not receive the lock later. *)
  Lock_manager.release_all lm ~owner:1;
  Alcotest.(check bool) "lock free after release" false (Lock_manager.is_held lm ~key:"a")

let test_timeout_skips_dead_waiter () =
  let engine, lm = make ~timeout:(t_us 100) () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  let w2 = ref None and w3 = ref false in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun r -> w2 := Some r);
  ignore (Engine.run ~until:(t_us 50) engine);
  Lock_manager.acquire lm ~owner:3 ~key:"a" (fun r ->
      expect_grant "x3" r;
      w3 := true);
  (* Let owner 2 time out (at 100), then release: owner 3, whose deadline
     is 150, should be granted. *)
  ignore (Engine.run ~until:(t_us 120) engine);
  (match !w2 with Some (Error `Timeout) -> () | _ -> Alcotest.fail "w2 should time out");
  Lock_manager.release_all lm ~owner:1;
  Alcotest.(check bool) "third granted, dead waiter skipped" true !w3;
  ignore (Engine.run engine);
  Alcotest.(check (option int)) "and it keeps the lock" (Some 3) (Lock_manager.holder lm ~key:"a")

let test_release_all () =
  let _, lm = make () in
  List.iter (fun key -> Lock_manager.acquire lm ~owner:1 ~key (expect_grant key)) [ "a"; "b"; "c" ];
  Alcotest.(check (list bool)) "held" [ true; true; true ]
    (List.map (fun key -> Lock_manager.is_held lm ~key) [ "a"; "b"; "c" ]);
  let granted = ref false in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun _ -> granted := true);
  Lock_manager.release_all lm ~owner:1;
  Alcotest.(check (list (option int))) "only the waiter holds" [ Some 2; None; None ]
    (List.map (fun key -> Lock_manager.holder lm ~key) [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "waiter promoted" true !granted

let test_release_all_drops_queued () =
  let engine, lm = make () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  let fired = ref false in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun _ -> fired := true);
  (* Owner 2 gives up (e.g. its transaction aborts elsewhere). *)
  Lock_manager.release_all lm ~owner:2;
  Lock_manager.release_all lm ~owner:1;
  ignore (Engine.run engine);
  Alcotest.(check bool) "dropped request never granted nor timed out" false !fired;
  Alcotest.(check bool) "lock left free" false (Lock_manager.is_held lm ~key:"a")

let test_unknown_release_ignored () =
  let _, lm = make () in
  Lock_manager.release_all lm ~owner:9;
  Alcotest.(check bool) "no-op" false (Lock_manager.is_held lm ~key:"nothing")

(* --- deadlocks resolve by timeout --- *)

(* Requests [key] for an owner that, like an Immediate participant, ends
   its transaction once the request is answered, committing on a grant
   and aborting on a timeout, and either way releases everything. *)
let finishing lm outcomes owner key =
  Lock_manager.acquire lm ~owner ~key (fun r ->
      outcomes := (owner, Result.is_ok r) :: !outcomes;
      Lock_manager.release_all lm ~owner)

let test_deadlock_two_owners () =
  (* 1 holds a, 2 holds b; then each requests the other's key, 2 later.
     1's request times out first, and its abort frees a for 2. *)
  let engine, lm = make ~timeout:(t_us 100) () in
  let outcomes = ref [] in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "1a");
  Lock_manager.acquire lm ~owner:2 ~key:"b" (expect_grant "2b");
  finishing lm outcomes 1 "b";
  ignore (Engine.run ~until:(t_us 50) engine);
  finishing lm outcomes 2 "a";
  ignore (Engine.run engine);
  Alcotest.(check (list (pair int bool))) "1 times out, then 2 is granted"
    [ (2, true); (1, false) ] !outcomes;
  Alcotest.(check (list bool)) "both keys free" [ false; false ]
    (List.map (fun key -> Lock_manager.is_held lm ~key) [ "a"; "b" ])

let test_deadlock_three_owners () =
  (* A ring: 1 holds a and requests b, 2 holds b and requests c, 3 holds
     c and requests a, in that order. One timeout breaks it: 1 aborts,
     then 3 and 2 are granted in turn. *)
  let engine, lm = make ~timeout:(t_us 100) () in
  let outcomes = ref [] in
  List.iter
    (fun (owner, key) -> Lock_manager.acquire lm ~owner ~key (expect_grant key))
    [ (1, "a"); (2, "b"); (3, "c") ];
  List.iteri
    (fun i (owner, key) ->
      ignore (Engine.run ~until:(t_us (10 * i)) engine);
      finishing lm outcomes owner key)
    [ (1, "b"); (2, "c"); (3, "a") ];
  ignore (Engine.run engine);
  Alcotest.(check (list (pair int bool))) "one timeout, two grants"
    [ (2, true); (3, true); (1, false) ] !outcomes;
  Alcotest.(check (list bool)) "every key free" [ false; false; false ]
    (List.map (fun key -> Lock_manager.is_held lm ~key) [ "a"; "b"; "c" ])

let test_no_false_deadlock_on_chain () =
  (* A plain chain 3 -> 2 -> 1 is not a deadlock: once 1 releases, 2 and
     then 3 are granted at once, and no request waits out its timeout. *)
  let engine, lm = make ~timeout:(t_us 100) () in
  let outcomes = ref [] in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "1a");
  Lock_manager.acquire lm ~owner:2 ~key:"b" (expect_grant "2b");
  finishing lm outcomes 2 "a";
  finishing lm outcomes 3 "b";
  ignore (Engine.run ~until:(t_us 50) engine);
  Lock_manager.release_all lm ~owner:1;
  Alcotest.(check (list (pair int bool))) "2, then 3" [ (3, true); (2, true) ] !outcomes;
  ignore (Engine.run engine);
  Alcotest.(check int) "no timeout fires later" 2 (List.length !outcomes)

(* An uncontended acquire and its [release_all] allocate what the table
   keeps while the lock is held: the lock (4 words) and its key-table
   entry (4), the owner's claim list cell (3) and its owner-table entry
   (4). A table that walked every lock's queue on release and built a
   table of keys per owner took 92 words here. *)
let test_grant_and_release_allocate_little () =
  let _, lm = make () in
  let k _ = () in
  let cycle owner =
    Lock_manager.acquire lm ~owner ~key:"a" k;
    Lock_manager.release_all lm ~owner
  in
  for owner = 1 to 100 do
    cycle owner
  done;
  let n = 1_000 in
  let words =
    Gen.allocated (fun () ->
        for owner = 1 to n do
          cycle owner
        done)
    /. 8. /. float_of_int n
  in
  Alcotest.(check bool) "left free" false (Lock_manager.is_held lm ~key:"a");
  Alcotest.(check (float 0.)) "words per grant and release" (4. +. 4. +. 3. +. 4.) words

(* --- the model --- *)

(* One step of a random schedule over owners 0-3 and keys k0-k2. *)
type op = Acquire of int * int | Release_all of int | Advance of int

let pp_op ppf = function
  | Acquire (o, k) -> Format.fprintf ppf "acquire %d k%d" o k
  | Release_all o -> Format.fprintf ppf "release_all %d" o
  | Advance d -> Format.fprintf ppf "advance %dus" d

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun o k -> Acquire (o, k)) (int_bound 3) (int_bound 2));
        (2, map (fun o -> Release_all o) (int_bound 3));
        (1, map (fun d -> Advance d) (int_range 1 150));
      ])

let model_timeout = 100
let n_keys = 3

(* A request's fate, as its continuation reports it. *)
type fate = Granted | Timed_out

(* The reference: per key, its holder and its waiters oldest first as
   (request id, owner, deadline). A freed key goes to its oldest waiter
   and the waiters right behind it of the same owner; waiters expire in
   deadline order, which is request order, since every request waits the
   same timeout. *)
type model = {
  mutable now : int;
  holders : int option array;
  queues : (int * int * int) list array;
  mutable log : (int * int * fate) list;  (* (key, request, fate), newest first *)
}

let rec model_pump m k =
  match (m.holders.(k), m.queues.(k)) with
  | holder, (id, o, _) :: rest when holder = None || holder = Some o ->
      m.holders.(k) <- Some o;
      m.queues.(k) <- rest;
      m.log <- (k, id, Granted) :: m.log;
      model_pump m k
  | _ -> ()

let model_step m ~id = function
  | Acquire (o, k) ->
      if m.queues.(k) = [] && (m.holders.(k) = None || m.holders.(k) = Some o) then begin
        m.holders.(k) <- Some o;
        m.log <- (k, id, Granted) :: m.log
      end
      else m.queues.(k) <- m.queues.(k) @ [ (id, o, m.now + model_timeout) ]
  | Release_all o ->
      Array.iteri (fun k q -> m.queues.(k) <- List.filter (fun (_, w, _) -> w <> o) q) m.queues;
      Array.iteri
        (fun k h ->
          if h = Some o then begin
            m.holders.(k) <- None;
            model_pump m k
          end)
        m.holders
  | Advance d ->
      m.now <- m.now + d;
      let expired =
        Array.to_list m.queues
        |> List.mapi (fun k q ->
               List.filter_map (fun (id, _, due) -> if due <= m.now then Some (id, k) else None) q)
        |> List.concat |> List.sort compare
      in
      List.iter
        (fun (id, k) ->
          m.queues.(k) <- List.filter (fun (w, _, _) -> w <> id) m.queues.(k);
          m.log <- (k, id, Timed_out) :: m.log)
        expired

(* Random acquires, releases and clock advances against the model: after
   every step each key's holder, waiter count and grant-and-expiry order
   match. At the end, once every deadline has passed, each request has
   fired exactly once unless its owner's [release_all] dropped it, and a
   dropped one has not fired at all. *)
let matches_model ops =
  let engine = Engine.create ~seed:6 () in
  let lm = Lock_manager.create ~engine ~timeout:(t_us model_timeout) in
  let m =
    { now = 0; holders = Array.make n_keys None; queues = Array.make n_keys []; log = [] }
  in
  let log = ref [] and next_id = ref 0 and dropped = ref [] in
  let key k = "k" ^ string_of_int k in
  let per_key l k = List.filter (fun (k', _, _) -> k' = k) l in
  let agree () =
    List.for_all
      (fun k ->
        Lock_manager.holder lm ~key:(key k) = m.holders.(k)
        && Lock_manager.waiting lm ~key:(key k) = List.length m.queues.(k)
        && per_key !log k = per_key m.log k)
      (List.init n_keys Fun.id)
  in
  let step op =
    let id = !next_id in
    (match op with
    | Acquire (o, k) ->
        incr next_id;
        Lock_manager.acquire lm ~owner:o ~key:(key k) (fun r ->
            log := (k, id, if Result.is_ok r then Granted else Timed_out) :: !log)
    | Release_all o ->
        Array.iter
          (List.iter (fun (w, owner, _) -> if owner = o then dropped := w :: !dropped))
          m.queues;
        Lock_manager.release_all lm ~owner:o
    | Advance d -> ignore (Engine.run ~until:(Time.add (Engine.now engine) (t_us d)) engine));
    model_step m ~id op;
    agree ()
  in
  List.for_all step ops
  && step (Advance (model_timeout + 1))
  && List.for_all
       (fun id ->
         let fired = List.length (List.filter (fun (_, w, _) -> w = id) !log) in
         fired = if List.mem id !dropped then 0 else 1)
       (List.init !next_id Fun.id)

let qcheck_tests =
  let open QCheck in
  [
    (* Safety: a grant never reaches an owner while another holds the key;
       the table's holder is always the last owner granted the key and not
       released since. *)
    Test.make ~name:"mutual exclusion invariant" ~count:200
      (list_of_size Gen.(int_range 1 80) (triple (int_bound 5) (int_bound 3) bool))
      (fun ops ->
        let engine = Engine.create ~seed:1 () in
        let lm = Lock_manager.create ~engine ~timeout:(t_us 50) in
        let held = Array.make 4 None in
        let violation = ref false in
        List.iter
          (fun (owner, k, release) ->
            let key = "k" ^ string_of_int k in
            Lock_manager.acquire lm ~owner ~key (function
              | Ok () ->
                  (match held.(k) with
                  | Some o when o <> owner -> violation := true
                  | Some _ | None -> ());
                  held.(k) <- Some owner
              | Error `Timeout -> ());
            if release then begin
              Array.iteri (fun k h -> if h = Some owner then held.(k) <- None) held;
              Lock_manager.release_all lm ~owner
            end;
            ignore (Engine.run ~until:(Time.add (Engine.now engine) (t_us 20)) engine);
            Array.iteri
              (fun k h ->
                if Lock_manager.holder lm ~key:("k" ^ string_of_int k) <> h then
                  violation := true)
              held)
          ops;
        ignore (Engine.run engine);
        not !violation);
    (* Liveness under timeouts: every continuation eventually fires. *)
    Test.make ~name:"every acquire terminates" ~count:100
      (list_of_size Gen.(int_range 1 60) (pair (int_bound 4) (int_bound 2)))
      (fun ops ->
        let engine = Engine.create ~seed:2 () in
        let lm = Lock_manager.create ~engine ~timeout:(t_us 100) in
        let outcomes = ref 0 in
        List.iter
          (fun (owner, k) ->
            Lock_manager.acquire lm ~owner ~key:("k" ^ string_of_int k) (fun _ -> incr outcomes))
          ops;
        ignore (Engine.run engine);
        !outcomes = List.length ops);
    Test.make ~name:"the table follows its FIFO model" ~count:300
      (make ~print:(Print.list (Format.asprintf "%a" pp_op))
         Gen.(list_size (int_range 1 60) op_gen))
      matches_model;
  ]

let suites =
  [
    ( "store.lock_manager",
      [
        Alcotest.test_case "immediate grant" `Quick test_immediate_grant;
        Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
        Alcotest.test_case "FIFO no barging" `Quick test_fifo_no_barging;
        Alcotest.test_case "reentrant" `Quick test_reentrant;
        Alcotest.test_case "timeout" `Quick test_timeout;
        Alcotest.test_case "timeout skips dead waiter" `Quick test_timeout_skips_dead_waiter;
        Alcotest.test_case "release_all" `Quick test_release_all;
        Alcotest.test_case "release_all drops queued" `Quick test_release_all_drops_queued;
        Alcotest.test_case "unknown release ignored" `Quick test_unknown_release_ignored;
        Alcotest.test_case "deadlock two owners" `Quick test_deadlock_two_owners;
        Alcotest.test_case "deadlock three owners" `Quick test_deadlock_three_owners;
        Alcotest.test_case "no false deadlock on chain" `Quick test_no_false_deadlock_on_chain;
        Alcotest.test_case "a grant and its release allocate little" `Quick
          test_grant_and_release_allocate_little;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
