open Avdb_sim
open Avdb_net

let addr = Address.of_int
let t_us = Time.of_us

(* --- Address --- *)

let test_address_basics () =
  let a = addr 3 in
  Alcotest.(check int) "roundtrip" 3 (Address.to_int a);
  Alcotest.(check bool) "equal" true (Address.equal a (addr 3));
  Alcotest.(check bool) "not equal" false (Address.equal a (addr 4));
  Alcotest.(check string) "pp" "site3" (Address.to_string a);
  Alcotest.check_raises "negative rejected" (Invalid_argument "Address.of_int: negative")
    (fun () -> ignore (addr (-1)))

(* --- Latency --- *)

let test_latency_constant () =
  let rng = Rng.create 1 in
  for _ = 1 to 10 do
    Alcotest.(check int) "constant" 500
      (Time.to_us (Latency.sample (Latency.Constant (t_us 500)) rng))
  done

let test_latency_uniform () =
  let rng = Rng.create 2 in
  for _ = 1 to 1_000 do
    let v = Time.to_us (Latency.sample (Latency.Uniform (t_us 100, t_us 200)) rng) in
    if v < 100 || v >= 200 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.(check int) "degenerate uniform" 7
    (Time.to_us (Latency.sample (Latency.Uniform (t_us 7, t_us 7)) rng))

let test_latency_gaussian_nonnegative () =
  let rng = Rng.create 3 in
  for _ = 1 to 1_000 do
    let v =
      Time.to_us
        (Latency.sample (Latency.Gaussian { mean = t_us 10; stddev = t_us 50 }) rng)
    in
    if v < 0 then Alcotest.failf "negative latency %d" v
  done

(* --- Network --- *)

let make_net ?latency ?drop_probability ?(n = 3) () =
  let engine = Engine.create ~seed:7 () in
  let net = Network.create ~engine ?latency ?drop_probability () in
  let received : (int * int * string) list ref = ref [] in
  for i = 0 to n - 1 do
    Network.add_node net (addr i) (fun ~src payload ->
        received := (Address.to_int src, i, payload) :: !received)
  done;
  (engine, net, received)

let test_delivery () =
  let engine, net, received = make_net ~latency:(Latency.Constant (t_us 10)) () in
  Network.send net ~src:(addr 0) ~dst:(addr 1) "hello";
  ignore (Engine.run engine);
  Alcotest.(check (list (triple int int string))) "delivered" [ (0, 1, "hello") ] !received;
  Alcotest.(check int) "clock advanced by latency" 10 (Time.to_us (Engine.now engine))

let test_fifo_per_link () =
  (* With high-variance latency, FIFO order must still hold per link. *)
  let engine, net, received =
    make_net ~latency:(Latency.Uniform (t_us 1, t_us 1_000)) ()
  in
  for i = 1 to 50 do
    Network.send net ~src:(addr 0) ~dst:(addr 1) (string_of_int i)
  done;
  ignore (Engine.run engine);
  let order = List.rev_map (fun (_, _, p) -> int_of_string p) !received in
  Alcotest.(check (list int)) "FIFO" (List.init 50 (fun i -> i + 1)) order

let test_unknown_destination () =
  let _, net, _ = make_net () in
  match Network.send net ~src:(addr 0) ~dst:(addr 99) "x" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_duplicate_node_rejected () =
  let _, net, _ = make_net () in
  match Network.add_node net (addr 0) (fun ~src:_ _ -> ()) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_down_node_drops () =
  let engine, net, received = make_net () in
  Network.set_down net (addr 1) true;
  Network.send net ~src:(addr 0) ~dst:(addr 1) "lost";
  ignore (Engine.run engine);
  Alcotest.(check (list (triple int int string))) "nothing delivered" [] !received;
  Alcotest.(check int) "counted dropped" 1 (Stats.total_dropped (Network.stats net));
  (* Recovery restores delivery. *)
  Network.set_down net (addr 1) false;
  Network.send net ~src:(addr 0) ~dst:(addr 1) "back";
  ignore (Engine.run engine);
  Alcotest.(check (list (triple int int string))) "delivered after recovery"
    [ (0, 1, "back") ] !received

let test_crash_loses_in_flight () =
  let engine, net, received = make_net ~latency:(Latency.Constant (t_us 100)) () in
  Network.send net ~src:(addr 0) ~dst:(addr 1) "in-flight";
  (* Crash the destination while the message is still travelling. *)
  ignore (Engine.schedule engine ~delay:(t_us 50) (fun () -> Network.set_down net (addr 1) true));
  ignore (Engine.run engine);
  Alcotest.(check (list (triple int int string))) "lost in flight" [] !received

let test_partition_and_heal () =
  let engine, net, received = make_net () in
  Network.partition net (addr 0) (addr 1);
  Alcotest.(check bool) "partitioned symmetric" true (Network.is_partitioned net (addr 1) (addr 0));
  Network.send net ~src:(addr 0) ~dst:(addr 1) "blocked";
  Network.send net ~src:(addr 1) ~dst:(addr 0) "blocked2";
  Network.send net ~src:(addr 0) ~dst:(addr 2) "through";
  ignore (Engine.run engine);
  Alcotest.(check (list (triple int int string))) "only unpartitioned pair"
    [ (0, 2, "through") ] !received;
  Network.heal net (addr 0) (addr 1);
  Network.send net ~src:(addr 0) ~dst:(addr 1) "healed";
  ignore (Engine.run engine);
  Alcotest.(check int) "healed delivers" 2 (List.length !received)

let test_drop_probability () =
  let engine, net, received = make_net ~drop_probability:0.5 () in
  let n = 2_000 in
  for _ = 1 to n do
    Network.send net ~src:(addr 0) ~dst:(addr 1) "m"
  done;
  ignore (Engine.run engine);
  let delivered = List.length !received in
  let rate = float_of_int delivered /. float_of_int n in
  if Float.abs (rate -. 0.5) > 0.05 then Alcotest.failf "delivery rate %.3f far from 0.5" rate;
  Alcotest.(check int) "sent + dropped accounted" n
    (Stats.total_received (Network.stats net) + Stats.total_dropped (Network.stats net))

let test_duplicate_probability () =
  let engine = Engine.create ~seed:7 () in
  let net =
    Network.create ~engine ~latency:(Latency.Constant (t_us 10)) ~duplicate_probability:1.0 ()
  in
  let received = ref 0 in
  for i = 0 to 1 do
    Network.add_node net (addr i) (fun ~src:_ (_ : string) -> incr received)
  done;
  for _ = 1 to 20 do
    Network.send net ~src:(addr 0) ~dst:(addr 1) "m"
  done;
  ignore (Engine.run engine);
  Alcotest.(check int) "every message delivered twice" 40 !received;
  Alcotest.(check int) "duplications counted" 20 (Stats.total_duplicated (Network.stats net));
  (* The runtime setter turns it back off. *)
  Network.set_duplicate_probability net 0.;
  received := 0;
  Network.send net ~src:(addr 0) ~dst:(addr 1) "m";
  ignore (Engine.run engine);
  Alcotest.(check int) "single delivery after setter" 1 !received

let test_reorder_probability () =
  (* Force reordering on a jittery link: delivery order must differ from
     send order at least once over many messages (with FIFO intact it
     never would). *)
  let engine = Engine.create ~seed:7 () in
  let net =
    Network.create ~engine
      ~latency:(Latency.Uniform (t_us 1, t_us 1_000))
      ~reorder_probability:0.5 ()
  in
  let received = ref [] in
  for i = 0 to 1 do
    Network.add_node net (addr i) (fun ~src:_ payload -> received := payload :: !received)
  done;
  for i = 1 to 50 do
    Network.send net ~src:(addr 0) ~dst:(addr 1) (string_of_int i)
  done;
  ignore (Engine.run engine);
  let order = List.rev_map int_of_string !received in
  Alcotest.(check int) "nothing lost" 50 (List.length order);
  Alcotest.(check bool) "some message overtaken" true
    (order <> List.init 50 (fun i -> i + 1));
  Alcotest.(check bool) "reorders counted" true (Stats.total_reordered (Network.stats net) > 0)

let test_fault_probability_setters_validate () =
  let engine = Engine.create ~seed:7 () in
  let net : string Network.t = Network.create ~engine () in
  List.iter
    (fun set ->
      match set net 1.5 with
      | () -> Alcotest.fail "out-of-range probability accepted"
      | exception Invalid_argument _ -> ())
    [
      Network.set_drop_probability;
      Network.set_duplicate_probability;
      Network.set_reorder_probability;
    ]

let test_stats_counting () =
  let engine, net, _ = make_net () in
  Network.send net ~src:(addr 0) ~dst:(addr 1) ~size:100 "a";
  Network.send net ~src:(addr 0) ~dst:(addr 2) ~size:50 "b";
  Network.send net ~src:(addr 1) ~dst:(addr 0) "c";
  ignore (Engine.run engine);
  let stats = Network.stats net in
  let s0 = Stats.site stats (addr 0) in
  Alcotest.(check int) "site0 sent" 2 s0.Stats.sent;
  Alcotest.(check int) "site0 bytes" 150 s0.Stats.bytes_sent;
  Alcotest.(check int) "site0 received" 1 s0.Stats.received;
  Alcotest.(check int) "total sent" 3 (Stats.total_sent stats);
  Alcotest.(check int) "total received" 3 (Stats.total_received stats);
  Alcotest.(check (float 0.001)) "message-pair correspondences" 1.5
    (Stats.message_pair_correspondences stats)

let test_nodes_listing () =
  let _, net, _ = make_net ~n:4 () in
  Alcotest.(check (list int)) "sorted nodes" [ 0; 1; 2; 3 ]
    (List.map Address.to_int (Network.nodes net));
  Network.remove_node net (addr 2);
  Alcotest.(check (list int)) "after removal" [ 0; 1; 3 ]
    (List.map Address.to_int (Network.nodes net))

let test_self_send () =
  let engine, net, received = make_net () in
  Network.send net ~src:(addr 1) ~dst:(addr 1) "self";
  ignore (Engine.run engine);
  Alcotest.(check (list (triple int int string))) "self delivery" [ (1, 1, "self") ] !received


let test_infinite_bandwidth_default () =
  let engine = Engine.create ~seed:7 () in
  let net = Network.create ~engine ~latency:(Latency.Constant (t_us 10)) () in
  let count = ref 0 in
  for i = 0 to 1 do
    Network.add_node net (addr i) (fun ~src:_ () -> incr count)
  done;
  for _ = 1 to 50 do
    Network.send net ~src:(addr 0) ~dst:(addr 1) ~size:1_000_000 ()
  done;
  ignore (Engine.run engine);
  Alcotest.(check int) "all delivered" 50 !count;
  Alcotest.(check int) "no serialisation delay" 10 (Time.to_us (Engine.now engine))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"all sent messages delivered or dropped" ~count:100
      (pair small_int (list_of_size Gen.(int_range 0 100) (pair (int_bound 2) (int_bound 2))))
      (fun (seed, sends) ->
        let engine = Engine.create ~seed () in
        let net =
          Network.create ~engine ~latency:(Latency.Uniform (t_us 1, t_us 100)) ()
        in
        for i = 0 to 2 do
          Network.add_node net (addr i) (fun ~src:_ _ -> ())
        done;
        List.iter (fun (s, d) -> Network.send net ~src:(addr s) ~dst:(addr d) ()) sends;
        ignore (Engine.run engine);
        let st = Network.stats net in
        Stats.total_sent st = List.length sends
        && Stats.total_received st + Stats.total_dropped st = Stats.total_sent st);
  ]

let suites =
  [
    ( "net.address",
      [ Alcotest.test_case "basics" `Quick test_address_basics ] );
    ( "net.latency",
      [
        Alcotest.test_case "constant" `Quick test_latency_constant;
        Alcotest.test_case "uniform" `Quick test_latency_uniform;
        Alcotest.test_case "gaussian non-negative" `Quick test_latency_gaussian_nonnegative;
      ] );
    ( "net.network",
      [
        Alcotest.test_case "delivery" `Quick test_delivery;
        Alcotest.test_case "FIFO per link" `Quick test_fifo_per_link;
        Alcotest.test_case "unknown destination" `Quick test_unknown_destination;
        Alcotest.test_case "duplicate node rejected" `Quick test_duplicate_node_rejected;
        Alcotest.test_case "down node drops" `Quick test_down_node_drops;
        Alcotest.test_case "crash loses in-flight" `Quick test_crash_loses_in_flight;
        Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
        Alcotest.test_case "drop probability" `Slow test_drop_probability;
        Alcotest.test_case "duplicate probability" `Quick test_duplicate_probability;
        Alcotest.test_case "reorder probability" `Quick test_reorder_probability;
        Alcotest.test_case "fault setters validate" `Quick test_fault_probability_setters_validate;
        Alcotest.test_case "stats counting" `Quick test_stats_counting;
        Alcotest.test_case "nodes listing" `Quick test_nodes_listing;
        Alcotest.test_case "self send" `Quick test_self_send;
        Alcotest.test_case "infinite bandwidth default" `Quick test_infinite_bandwidth_default;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
