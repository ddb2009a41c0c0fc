open Avdb_sim
open Avdb_net

let addr = Address.of_int
let t_us = Time.of_us

(* A tiny echo/increment service on site 0; callers live on other sites. *)
let make ?latency ?drop_probability () =
  let engine = Engine.create ~seed:11 () in
  let rpc : (int, int, string) Rpc.t =
    Rpc.create ~engine ?latency ?drop_probability ()
  in
  (engine, rpc)

let serve_incr ?notice rpc a =
  Rpc.serve rpc a ~handler:(fun ~src:_ ~span:_ n ~reply -> reply (n + 1)) ?notice ()

let serve_silent rpc a =
  (* A server that never replies: exercises the timeout path. *)
  Rpc.serve rpc a ~handler:(fun ~src:_ ~span:_ _ ~reply:_ -> ()) ()

let test_call_response () =
  let engine, rpc = make ~latency:(Latency.Constant (t_us 10)) () in
  serve_incr rpc (addr 0);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let result = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) 41 (fun r -> result := Some r);
  ignore (Engine.run engine);
  (match !result with
  | Some (Ok 42) -> ()
  | _ -> Alcotest.fail "expected Ok 42");
  Alcotest.(check int) "round trip = 2 * latency" 20 (Time.to_us (Engine.now engine));
  Alcotest.(check int) "one correspondence for caller" 1
    (Stats.site (Rpc.stats rpc) (addr 1)).Stats.correspondences;
  Alcotest.(check int) "no correspondence for server" 0
    (Stats.site (Rpc.stats rpc) (addr 0)).Stats.correspondences;
  Alcotest.(check int) "no pending calls" 0 (Rpc.pending_calls rpc)

let test_timeout () =
  let engine, rpc = make () in
  serve_silent rpc (addr 0);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let result = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 500) 1 (fun r -> result := Some r);
  ignore (Engine.run engine);
  (match !result with
  | Some (Error Rpc.Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout");
  Alcotest.(check int) "pending cleaned up" 0 (Rpc.pending_calls rpc)

let test_late_response_ignored () =
  (* Server replies after the caller's timeout: continuation must fire
     exactly once, with the timeout. *)
  let engine, rpc = make ~latency:(Latency.Constant (t_us 400)) () in
  serve_incr rpc (addr 0);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let calls = ref [] in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 500) 1 (fun r -> calls := r :: !calls);
  ignore (Engine.run engine);
  match !calls with
  | [ Error Rpc.Timeout ] -> ()
  | l -> Alcotest.failf "continuation fired %d times" (List.length l)

let test_down_destination_times_out () =
  (* Failure detection is timeout-only: a caller has no oracle for the
     peer's liveness, so a call to a down site resolves as Timeout after
     the full rpc timeout, never instantly. *)
  let engine, rpc = make () in
  serve_incr rpc (addr 0);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  Network.set_down (Rpc.network rpc) (addr 0) true;
  let result = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 500) 1 (fun r -> result := Some r);
  ignore (Engine.run engine);
  (match !result with
  | Some (Error Rpc.Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout to down destination");
  Alcotest.(check int) "timeout observed only after the full rpc timeout" 500
    (Time.to_us (Engine.now engine));
  Alcotest.(check int) "the attempt still costs one correspondence" 1
    (Stats.site (Rpc.stats rpc) (addr 1)).Stats.correspondences

let retry_fast =
  { Rpc.max_attempts = 5; base_backoff = t_us 100; backoff_multiplier = 2.; jitter = 0. }

let test_retry_recovers_after_outage () =
  (* All messages dropped until t=1500us; a retrying call rides out the
     outage and completes, and the handler runs exactly once. *)
  let engine, rpc = make ~latency:(Latency.Constant (t_us 10)) () in
  let served = ref 0 in
  Rpc.serve rpc (addr 0)
    ~handler:(fun ~src:_ ~span:_ n ~reply ->
      incr served;
      reply (n + 1))
    ();
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  Network.set_drop_probability (Rpc.network rpc) 1.0;
  ignore
    (Engine.schedule engine ~delay:(t_us 1_500) (fun () ->
         Network.set_drop_probability (Rpc.network rpc) 0.));
  let result = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 1_000) ~retry:retry_fast 41
    (fun r -> result := Some r);
  ignore (Engine.run engine);
  (match !result with
  | Some (Ok 42) -> ()
  | _ -> Alcotest.fail "expected Ok 42 after outage healed");
  Alcotest.(check int) "handler executed once" 1 !served;
  Alcotest.(check int) "one logical call = one correspondence" 1
    (Stats.site (Rpc.stats rpc) (addr 1)).Stats.correspondences;
  Alcotest.(check bool) "retransmissions were counted" true
    (Stats.total_retries (Rpc.stats rpc) >= 1)

let test_retry_exhaustion () =
  let engine, rpc = make () in
  serve_incr rpc (addr 0);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  Network.set_drop_probability (Rpc.network rpc) 1.0;
  let retry = { retry_fast with Rpc.max_attempts = 3 } in
  let result = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 1_000) ~retry 1 (fun r ->
      result := Some r);
  ignore (Engine.run engine);
  (match !result with
  | Some (Error Rpc.Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout after exhausting retries");
  Alcotest.(check int) "two retransmissions after the first attempt" 2
    (Stats.total_retries (Rpc.stats rpc));
  Alcotest.(check int) "still one correspondence" 1
    (Stats.site (Rpc.stats rpc) (addr 1)).Stats.correspondences;
  Alcotest.(check int) "pending cleaned up" 0 (Rpc.pending_calls rpc)

(* The network delivers every message twice; the reply cache makes the
   handler (which may be non-idempotent, e.g. an AV grant) run once.
   Whether a request can repeat is decided when it is sent, so with
   [switch_off] the copy still finds the cache although duplication is
   off before either copy lands. *)
let duplicate_request_executes_once ~switch_off () =
  let engine, rpc =
    let engine = Engine.create ~seed:11 () in
    let rpc : (int, int, string) Rpc.t =
      Rpc.create ~engine ~latency:(Latency.Constant (t_us 10)) ~duplicate_probability:1.0 ()
    in
    (engine, rpc)
  in
  let served = ref 0 in
  Rpc.serve rpc (addr 0)
    ~handler:(fun ~src:_ ~span:_ n ~reply ->
      incr served;
      reply (n + 1))
    ();
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let results = ref [] in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) 7 (fun r -> results := r :: !results);
  if switch_off then Network.set_duplicate_probability (Rpc.network rpc) 0.;
  ignore (Engine.run engine);
  (match !results with
  | [ Ok 8 ] -> ()
  | l -> Alcotest.failf "continuation fired %d times" (List.length l));
  Alcotest.(check int) "handler executed once despite duplication" 1 !served;
  Alcotest.(check bool) "duplicates observed on the wire" true
    (Stats.total_duplicated (Rpc.stats rpc) >= 1)

let test_notice () =
  let engine, rpc = make () in
  let notices = ref [] in
  serve_incr rpc (addr 0) ~notice:(fun ~src note ->
      notices := (Address.to_int src, note) :: !notices);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  Rpc.notify rpc ~src:(addr 1) ~dst:(addr 0) "gossip";
  ignore (Engine.run engine);
  Alcotest.(check (list (pair int string))) "notice delivered" [ (1, "gossip") ] !notices;
  Alcotest.(check int) "notify is not a correspondence" 0
    (Stats.total_correspondences (Rpc.stats rpc))

let test_deferred_reply () =
  (* Server answers from a later event, e.g. after consulting a third
     site; reply must still be routed to the original caller. *)
  let engine, rpc = make ~latency:(Latency.Constant (t_us 5)) () in
  Rpc.serve rpc (addr 0)
    ~handler:(fun ~src:_ ~span:_ n ~reply ->
      ignore (Engine.schedule engine ~delay:(t_us 100) (fun () -> reply (n * 2))))
    ();
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let result = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 1_000) 21 (fun r -> result := Some r);
  ignore (Engine.run engine);
  match !result with
  | Some (Ok 42) -> ()
  | _ -> Alcotest.fail "expected deferred Ok 42"

(* The request cannot repeat, so it bypasses the reply cache; the local
   guard still keeps the second reply off the wire. *)
let test_double_reply_ignored () =
  let engine, rpc = make () in
  Rpc.serve rpc (addr 0)
    ~handler:(fun ~src:_ ~span:_ n ~reply ->
      reply n;
      reply (n + 100))
    ();
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let results = ref [] in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) 7 (fun r -> results := r :: !results);
  ignore (Engine.run engine);
  (match !results with
  | [ Ok 7 ] -> ()
  | _ -> Alcotest.fail "second reply should be ignored");
  Alcotest.(check int) "one response sent" 1 (Stats.site (Rpc.stats rpc) (addr 0)).Stats.sent

let test_concurrent_calls_matched () =
  (* Many overlapping calls with jittery latency: each response must reach
     its own continuation. *)
  let engine, rpc = make ~latency:(Latency.Uniform (t_us 1, t_us 200)) () in
  serve_incr rpc (addr 0);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  Rpc.serve rpc (addr 2) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let ok = ref 0 in
  for i = 1 to 100 do
    let caller = addr (1 + (i mod 2)) in
    Rpc.call rpc ~src:caller ~dst:(addr 0) i (function
      | Ok r when r = i + 1 -> incr ok
      | _ -> Alcotest.failf "mismatched response for %d" i)
  done;
  ignore (Engine.run engine);
  Alcotest.(check int) "all matched" 100 !ok

let test_lossy_calls_all_terminate () =
  (* Under heavy loss every call still terminates (response or timeout). *)
  let engine, rpc = make ~drop_probability:0.4 () in
  serve_incr rpc (addr 0);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let outcomes = ref 0 in
  for i = 1 to 200 do
    Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 10_000) i (fun _ -> incr outcomes)
  done;
  ignore (Engine.run engine);
  Alcotest.(check int) "every call terminated" 200 !outcomes;
  Alcotest.(check int) "no pending entries leak" 0 (Rpc.pending_calls rpc)


let test_partitioned_call_times_out () =
  let engine, rpc = make () in
  serve_incr rpc (addr 0);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  Network.partition (Rpc.network rpc) (addr 0) (addr 1);
  let result = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 500) 1 (fun r -> result := Some r);
  ignore (Engine.run engine);
  (match !result with
  | Some (Error Rpc.Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout through partition");
  (* Healing restores calls. *)
  Network.heal (Rpc.network rpc) (addr 0) (addr 1);
  let result2 = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) 1 (fun r -> result2 := Some r);
  ignore (Engine.run engine);
  match !result2 with
  | Some (Ok 2) -> ()
  | _ -> Alcotest.fail "expected Ok after heal"

let test_response_lost_to_partition () =
  (* Partition cut between request delivery and response: the server
     processed the request but the caller times out - the classic
     at-most-once ambiguity, surfaced as Timeout. *)
  let engine, rpc = make ~latency:(Latency.Constant (t_us 100)) () in
  let served = ref 0 in
  Rpc.serve rpc (addr 0)
    ~handler:(fun ~src:_ ~span:_ n ~reply ->
      incr served;
      reply (n + 1))
    ();
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  ignore
    (Engine.schedule engine ~delay:(t_us 150) (fun () ->
         Network.partition (Rpc.network rpc) (addr 0) (addr 1)));
  let result = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 1_000) 1 (fun r -> result := Some r);
  ignore (Engine.run engine);
  Alcotest.(check int) "server did process it" 1 !served;
  match !result with
  | Some (Error Rpc.Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout when response lost"

(* The reply cache holds only requests that can arrive twice. A retrying
   call can: its first response is lost to a partition that heals before
   the retransmission, and the server answers the retransmission from the
   cache instead of running the handler again. *)
let test_retry_answered_from_cache () =
  let engine, rpc = make ~latency:(Latency.Constant (t_us 100)) () in
  let served = ref 0 in
  Rpc.serve rpc (addr 0)
    ~handler:(fun ~src:_ ~span:_ n ~reply ->
      incr served;
      reply (n + 1))
    ();
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let net = Rpc.network rpc in
  (* Request lands at 100us and is answered at once; the response is
     cut at 150us, before it lands at 200us; the link heals at 300us. *)
  let at us f = ignore (Engine.schedule engine ~delay:(t_us us) f) in
  at 150 (fun () -> Network.partition net (addr 0) (addr 1));
  at 300 (fun () -> Network.heal net (addr 0) (addr 1));
  let result = ref None in
  Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) ~timeout:(t_us 1_000) ~retry:retry_fast 41
    (fun r -> result := Some r);
  ignore (Engine.run engine);
  (match !result with
  | Some (Ok 42) -> ()
  | _ -> Alcotest.fail "expected Ok 42 from the cached reply");
  Alcotest.(check int) "handler executed once" 1 !served;
  Alcotest.(check bool) "the call retransmitted" true (Stats.total_retries (Rpc.stats rpc) >= 1)

(* A call answered at once allocates 84 minor words a round trip on an
   untraced transport without retries: the call record (13) with its
   pending-table entry (4) and its timeout event (closure and entry, 9),
   the two envelopes (5 and 3), two network sends with their delivery
   events and boxed sizes (30), the engine run's result (4), and the
   server's reply closure and its flag (16). Built of closures (the send
   attempt, two span helpers and the timeout event) with an option around
   the timeout handle, a round trip took 108. *)
let test_round_trip_allocates_little () =
  let engine, rpc = make ~latency:(Latency.Constant (t_us 10)) () in
  serve_incr rpc (addr 0);
  Rpc.serve rpc (addr 1) ~handler:(fun ~src:_ ~span:_ _ ~reply -> reply 0) ();
  let answered = ref 0 in
  let k = function Ok _ -> incr answered | Error Rpc.Timeout -> () in
  let round_trip () =
    Rpc.call rpc ~src:(addr 1) ~dst:(addr 0) 41 k;
    ignore (Engine.run engine)
  in
  for _ = 1 to 100 do
    round_trip ()
  done;
  let n = 1_000 in
  let words =
    Gen.allocated (fun () ->
        for _ = 1 to n do
          round_trip ()
        done)
    /. 8. /. float_of_int n
  in
  Alcotest.(check int) "every call answered" (100 + n) !answered;
  if words > 84. then
    Alcotest.failf "a round trip allocates %.1f minor words (at most 84)" words

let suites =
  [
    ( "net.rpc",
      [
        Alcotest.test_case "call/response" `Quick test_call_response;
        Alcotest.test_case "timeout" `Quick test_timeout;
        Alcotest.test_case "late response ignored" `Quick test_late_response_ignored;
        Alcotest.test_case "down destination times out" `Quick test_down_destination_times_out;
        Alcotest.test_case "retry recovers after outage" `Quick test_retry_recovers_after_outage;
        Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion;
        Alcotest.test_case "duplicate request executes once" `Quick
          (duplicate_request_executes_once ~switch_off:false);
        Alcotest.test_case "duplicate cached after switch-off" `Quick
          (duplicate_request_executes_once ~switch_off:true);
        Alcotest.test_case "notice" `Quick test_notice;
        Alcotest.test_case "deferred reply" `Quick test_deferred_reply;
        Alcotest.test_case "double reply ignored" `Quick test_double_reply_ignored;
        Alcotest.test_case "concurrent calls matched" `Quick test_concurrent_calls_matched;
        Alcotest.test_case "lossy calls all terminate" `Quick test_lossy_calls_all_terminate;
        Alcotest.test_case "partitioned call times out" `Quick test_partitioned_call_times_out;
        Alcotest.test_case "response lost to partition" `Quick test_response_lost_to_partition;
        Alcotest.test_case "retry answered from the cache" `Quick
          test_retry_answered_from_cache;
        Alcotest.test_case "a round trip allocates little" `Quick
          test_round_trip_allocates_little;
      ] );
  ]
