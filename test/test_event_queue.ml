open Avdb_sim

let t_us = Time.of_us

let drain q =
  let rec loop acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (time, v) -> loop ((Time.to_us time, v) :: acc)
  in
  loop []

let test_ordering () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(t_us 30) "c");
  ignore (Event_queue.add q ~time:(t_us 10) "a");
  ignore (Event_queue.add q ~time:(t_us 20) "b");
  Alcotest.(check (list (pair int string)))
    "time order"
    [ (10, "a"); (20, "b"); (30, "c") ]
    (drain q)

let test_fifo_ties () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(t_us 5) "first");
  ignore (Event_queue.add q ~time:(t_us 5) "second");
  ignore (Event_queue.add q ~time:(t_us 5) "third");
  Alcotest.(check (list (pair int string)))
    "insertion order at equal times"
    [ (5, "first"); (5, "second"); (5, "third") ]
    (drain q)

let test_cancel () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(t_us 1) "keep1");
  let h = Event_queue.add q ~time:(t_us 2) "dropped" in
  ignore (Event_queue.add q ~time:(t_us 3) "keep2");
  Event_queue.cancel q h;
  Alcotest.(check bool) "is_cancelled" true (Event_queue.is_cancelled h);
  Alcotest.(check int) "length excludes cancelled" 2 (Event_queue.length q);
  Alcotest.(check (list (pair int string)))
    "cancelled never pops"
    [ (1, "keep1"); (3, "keep2") ]
    (drain q)

let test_cancel_idempotent () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:(t_us 1) () in
  Event_queue.cancel q h;
  Event_queue.cancel q h;
  Alcotest.(check bool) "empty after cancel" true (Event_queue.is_empty q);
  Alcotest.(check (list (pair int unit))) "drains empty" [] (drain q)

let test_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option int)) "peek empty" None (Option.map Time.to_us (Event_queue.peek_time q));
  let h = Event_queue.add q ~time:(t_us 4) "x" in
  ignore (Event_queue.add q ~time:(t_us 9) "y");
  Alcotest.(check (option int)) "peek min" (Some 4) (Option.map Time.to_us (Event_queue.peek_time q));
  Event_queue.cancel q h;
  Alcotest.(check (option int))
    "peek skips cancelled" (Some 9)
    (Option.map Time.to_us (Event_queue.peek_time q))

let test_counters () =
  let q = Event_queue.create () in
  for i = 1 to 5 do
    ignore (Event_queue.add q ~time:(t_us i) i)
  done;
  Alcotest.(check int) "scheduled_total" 5 (Event_queue.scheduled_total q);
  ignore (Event_queue.pop q);
  Alcotest.(check int) "length after pop" 4 (Event_queue.length q);
  Alcotest.(check int) "scheduled_total is lifetime" 5 (Event_queue.scheduled_total q)

let test_interleaved_add_pop () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(t_us 10) 10);
  ignore (Event_queue.add q ~time:(t_us 5) 5);
  (match Event_queue.pop q with
  | Some (_, 5) -> ()
  | _ -> Alcotest.fail "expected 5");
  ignore (Event_queue.add q ~time:(t_us 1) 1);
  (match Event_queue.pop q with
  | Some (_, 1) -> ()
  | _ -> Alcotest.fail "expected 1 (added after a pop)");
  match Event_queue.pop q with
  | Some (_, 10) -> ()
  | _ -> Alcotest.fail "expected 10"

(* Cancellation is eager: the entry leaves the heap at [cancel], so the
   queue keeps neither it nor its payload reachable. The payload is made
   and the handle dropped in a function of its own, so only the queue
   could still hold them. *)
let[@inline never] add_cancelled q weak =
  let payload = Array.make 4 0 in
  Weak.set weak 0 (Some payload);
  let h = Event_queue.add q ~time:(t_us 5) payload in
  Event_queue.cancel q h

let test_cancel_frees_payload () =
  let q = Event_queue.create () in
  List.iter (fun time -> ignore (Event_queue.add q ~time:(t_us time) [||])) [ 1; 9; 3; 7 ];
  let weak = Weak.create 1 in
  add_cancelled q weak;
  Alcotest.(check int) "length drops at cancel" 4 (Event_queue.length q);
  Gc.full_major ();
  Alcotest.(check bool) "cancelled payload collected" false (Weak.check weak 0);
  Alcotest.(check (list int)) "the rest still pops in order" [ 1; 3; 7; 9 ]
    (List.map fst (drain q))

let[@inline never] add_tracked q weak =
  for i = 0 to Weak.length weak - 1 do
    let payload = Array.make 4 i in
    Weak.set weak i (Some payload);
    ignore (Event_queue.add q ~time:(t_us (100 - i)) payload)
  done

(* A popped entry leaves a vacated slot behind the shrinking heap; the
   slot must not keep the entry or its payload alive. *)
let test_popped_entries_unreachable () =
  let q = Event_queue.create () in
  let weak = Weak.create 40 in
  add_tracked q weak;
  for _ = 1 to 30 do
    ignore (Event_queue.pop q)
  done;
  Gc.full_major ();
  let alive = List.filter (Weak.check weak) (List.init 40 Fun.id) in
  (* Times run 100 down to 61, so the ten latest-scheduled (earliest) went
     last: indices 0-9 remain. *)
  Alcotest.(check (list int)) "only queued payloads stay reachable" (List.init 10 Fun.id)
    alive;
  Alcotest.(check int) "length" 10 (Event_queue.length q)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"pop sequence is sorted by time" ~count:300
      (list_of_size Gen.(int_range 0 200) (int_bound 1_000))
      (fun times ->
        let q = Event_queue.create () in
        List.iter (fun time -> ignore (Event_queue.add q ~time:(t_us time) time)) times;
        let popped = List.map fst (drain q) in
        popped = List.sort compare times);
    Test.make ~name:"cancelled subset never surfaces" ~count:300
      (list_of_size Gen.(int_range 0 100) (pair (int_bound 1_000) bool))
      (fun entries ->
        let q = Event_queue.create () in
        let kept = ref [] in
        List.iter
          (fun (time, cancel) ->
            let h = Event_queue.add q ~time:(t_us time) time in
            if cancel then Event_queue.cancel q h else kept := time :: !kept)
          entries;
        let popped = List.map fst (drain q) in
        popped = List.sort compare !kept);
    (* Interleaved add/cancel/pop against a reference model: after every
       operation the pop result, live count and emptiness must match a
       naive sorted-list implementation, including cancelling entries that
       already popped or were already cancelled. Handles are held weakly,
       so at the end exactly the entries the model still holds may be
       reachable: a fired or cancelled entry must not linger in a heap
       slot. *)
    Test.make ~name:"add/cancel/pop agrees with reference model" ~count:300
      (list_of_size Gen.(int_range 0 150) (pair (int_bound 2) (int_bound 1_000)))
      (fun ops ->
        let q = Event_queue.create () in
        (* model: live (seq, time) entries, plus a weak pointer to every
           handle ever made *)
        let model = ref [] and handles = ref [||] and seq = ref 0 in
        let ok = ref true in
        List.iter
          (fun (op, n) ->
            (match op with
            | 0 ->
                let w = Weak.create 1 in
                Weak.set w 0 (Some (Event_queue.add q ~time:(t_us n) !seq));
                model := (!seq, n) :: !model;
                handles := Array.append !handles [| (w, !seq) |];
                incr seq
            | 1 ->
                if Array.length !handles > 0 then begin
                  let w, id = !handles.(n mod Array.length !handles) in
                  (match Weak.get w 0 with
                  | Some h -> Event_queue.cancel q h
                  | None -> if List.mem_assoc id !model then ok := false);
                  model := List.filter (fun (id', _) -> id' <> id) !model
                end
            | _ ->
                let expect =
                  match
                    List.sort (fun (s1, t1) (s2, t2) -> compare (t1, s1) (t2, s2)) !model
                  with
                  | [] -> None
                  | ((id, time) as hd) :: _ ->
                      model := List.filter (fun e -> e <> hd) !model;
                      Some (time, id)
                in
                let got =
                  Option.map (fun (time, id) -> (Time.to_us time, id)) (Event_queue.pop q)
                in
                if got <> expect then ok := false);
            if
              Event_queue.length q <> List.length !model
              || Event_queue.is_empty q <> (!model = [])
            then ok := false)
          ops;
        Gc.full_major ();
        Array.iter
          (fun (w, id) -> if Weak.check w 0 <> List.mem_assoc id !model then ok := false)
          !handles;
        !ok && Event_queue.length q = List.length !model);
    Test.make ~name:"length counts live entries" ~count:300
      (list_of_size Gen.(int_range 0 100) (pair (int_bound 1_000) bool))
      (fun entries ->
        let q = Event_queue.create () in
        let live = ref 0 in
        List.iter
          (fun (time, cancel) ->
            let h = Event_queue.add q ~time:(t_us time) () in
            if cancel then Event_queue.cancel q h else incr live)
          entries;
        Event_queue.length q = !live);
  ]

let suites =
  [
    ( "sim.event_queue",
      [
        Alcotest.test_case "ordering" `Quick test_ordering;
        Alcotest.test_case "FIFO at equal times" `Quick test_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
        Alcotest.test_case "cancel frees the payload at once" `Quick test_cancel_frees_payload;
        Alcotest.test_case "popped entries unreachable" `Quick test_popped_entries_unreachable;
        Alcotest.test_case "peek" `Quick test_peek;
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "interleaved add/pop" `Quick test_interleaved_add_pop;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
