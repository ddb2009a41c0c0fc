(* The cross-domain MPSC mailbox: per-sender FIFO, no loss, no
   duplication. Sequential properties drive the ring/overflow machinery
   through qcheck; the concurrent test runs real producer domains
   against a consumer draining mid-flight. *)

open Avdb_sim

(* Any interleaved push sequence from several senders drains to exactly
   the per-sender sequences, sorted by (rank, seq). Small ring
   capacities force the overflow path. *)
let prop_drain_exact =
  QCheck.Test.make ~name:"drain is (rank, seq)-sorted and exact" ~count:200
    QCheck.(pair (int_range 0 2) (list_of_size (Gen.int_range 0 120) (int_bound 3)))
    (fun (cap_choice, ranks) ->
      let ring_capacity = [| 2; 8; 64 |].(cap_choice) in
      let mbox = Mailbox.create ~ring_capacity () in
      let senders = Array.init 4 (fun rank -> Mailbox.sender mbox ~rank) in
      let pushed = Array.make 4 [] in
      List.iter
        (fun rank ->
          let payload = (rank * 1000) + List.length pushed.(rank) in
          pushed.(rank) <- pushed.(rank) @ [ payload ];
          Mailbox.push senders.(rank) payload)
        ranks;
      let drained = Mailbox.drain mbox in
      let sorted =
        List.sort (fun (r1, s1, _) (r2, s2, _) -> compare (r1, s1) (r2, s2)) drained
      in
      let per_rank rank =
        List.filter_map (fun (r, _, p) -> if r = rank then Some p else None) drained
      in
      drained = sorted
      && List.length drained = List.length ranks
      && List.for_all (fun rank -> per_rank rank = pushed.(rank)) [ 0; 1; 2; 3 ]
      && Mailbox.drain mbox = []
      && Mailbox.is_empty mbox)

(* Seqs are dense per sender and [pushed] counts them. *)
let prop_seq_dense =
  QCheck.Test.make ~name:"per-sender seqs are dense from 0" ~count:100
    QCheck.(pair (int_bound 40) (int_bound 40))
    (fun (n0, n1) ->
      let mbox = Mailbox.create ~ring_capacity:4 () in
      let s0 = Mailbox.sender mbox ~rank:0 and s1 = Mailbox.sender mbox ~rank:1 in
      for i = 1 to n0 do
        Mailbox.push s0 i
      done;
      for i = 1 to n1 do
        Mailbox.push s1 i
      done;
      let drained = Mailbox.drain mbox in
      let seqs rank =
        List.filter_map (fun (r, s, _) -> if r = rank then Some s else None) drained
      in
      Mailbox.pushed s0 = n0
      && Mailbox.pushed s1 = n1
      && seqs 0 = List.init n0 Fun.id
      && seqs 1 = List.init n1 Fun.id)

(* Real concurrency: producer domains hammer a deliberately tiny ring
   while the consumer drains mid-flight. Every message must arrive
   exactly once, and each sender's stream must come out in push order
   across the batch boundaries. *)
let concurrent_producers ~ring_capacity =
  let n_senders = 4 and n_msgs = 2000 in
  let mbox = Mailbox.create ~ring_capacity () in
  let producers =
    List.init n_senders (fun rank ->
        Domain.spawn (fun () ->
            let s = Mailbox.sender mbox ~rank in
            for i = 0 to n_msgs - 1 do
              Mailbox.push s ((rank * n_msgs) + i)
            done))
  in
  let batches = ref [] and total = ref 0 in
  while !total < n_senders * n_msgs do
    let b = Mailbox.drain mbox in
    batches := b :: !batches;
    total := !total + List.length b;
    if b = [] then Domain.cpu_relax ()
  done;
  List.iter Domain.join producers;
  Alcotest.(check (list (triple int int int))) "drained clean after join" []
    (Mailbox.drain mbox);
  let all = List.concat (List.rev !batches) in
  for rank = 0 to n_senders - 1 do
    let mine = List.filter (fun (r, _, _) -> r = rank) all in
    Alcotest.(check (list int))
      (Printf.sprintf "sender %d seqs dense and FIFO" rank)
      (List.init n_msgs Fun.id)
      (List.map (fun (_, s, _) -> s) mine);
    Alcotest.(check (list int))
      (Printf.sprintf "sender %d payloads in push order" rank)
      (List.init n_msgs (fun i -> (rank * n_msgs) + i))
      (List.map (fun (_, _, p) -> p) mine)
  done

let test_concurrent_producers () = concurrent_producers ~ring_capacity:8

(* The same at the smallest ring, repeated: a message published behind a
   cell another producer has claimed but not yet filled stays in the ring
   while the sender's later messages go through the overflow stack, and
   must not be handed out after them. *)
let test_concurrent_stress () =
  for _ = 1 to 25 do
    concurrent_producers ~ring_capacity:2
  done

let suites =
  [
    ( "sim.mailbox",
      [
        Gen.to_alcotest prop_drain_exact;
        Gen.to_alcotest prop_seq_dense;
        Alcotest.test_case "concurrent domain producers" `Quick test_concurrent_producers;
        Alcotest.test_case "concurrent producers, ring of 2, repeated" `Quick
          test_concurrent_stress;
      ] );
  ]
