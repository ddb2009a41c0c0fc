open Avdb_sim

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_copy_snapshot () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_split_independence () =
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  (* After a split, parent and child streams differ immediately. *)
  Alcotest.(check bool) "differs" true (Rng.bits64 parent <> Rng.bits64 child)

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_int_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_int_in_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in r (-3) 3 in
    if v < -3 || v > 3 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.(check int) "degenerate range" 9 (Rng.int_in r 9 9)

let test_float_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_int_uniformity () =
  (* Chi-square-ish sanity: each of 10 buckets within 20% of expectation. *)
  let r = Rng.create 123 in
  let n = 100_000 and k = 10 in
  let counts = Array.make k 0 in
  for _ = 1 to n do
    let v = Rng.int r k in
    counts.(v) <- counts.(v) + 1
  done;
  let expect = float_of_int n /. float_of_int k in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expect) /. expect in
      if dev > 0.2 then Alcotest.failf "bucket %d deviates %.1f%%" i (100. *. dev))
    counts

let test_bernoulli_rate () =
  let r = Rng.create 21 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if Float.abs (rate -. 0.3) > 0.01 then Alcotest.failf "rate %.3f far from 0.3" rate

let test_exponential_mean () =
  let r = Rng.create 31 in
  let n = 200_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 5.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 5.0) > 0.1 then Alcotest.failf "mean %.3f far from 5" mean

let test_gaussian_moments () =
  let r = Rng.create 41 in
  let n = 200_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian r ~mean:1.0 ~stddev:2.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  if Float.abs (mean -. 1.0) > 0.05 then Alcotest.failf "mean %.3f" mean;
  if Float.abs (var -. 4.0) > 0.15 then Alcotest.failf "var %.3f" var

let test_shuffle_permutation () =
  let r = Rng.create 51 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 100 Fun.id) sorted

let test_pick () =
  let r = Rng.create 61 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let v = Rng.pick r a in
    if not (Array.mem v a) then Alcotest.fail "picked foreign element"
  done;
  Alcotest.(check string) "pick_list singleton" "only" (Rng.pick_list r [ "only" ]);
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick r [||]))

(* Known answers: the streams every same-seed run depends on. A change to
   how the generator stores or steps its state must leave them alone. *)
let test_known_answers () =
  let draws r n = List.init n (fun _ -> Rng.bits64 r) in
  Alcotest.(check (list int64))
    "create 0"
    [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L ]
    (draws (Rng.create 0) 3);
  let parent = Rng.create 42 in
  Alcotest.(check (list int64))
    "create 42"
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L ]
    (draws parent 3);
  let child = Rng.split parent in
  Alcotest.(check (list int64))
    "split child"
    [ 3051795713344259816L; -8776176026317638045L; -8227976090842824592L ]
    (draws child 3);
  Alcotest.(check int64) "parent after the split" (-151191095644234140L) (Rng.bits64 parent);
  let r = Rng.create 42 in
  let i1 = Rng.int r 10 in
  let i2 = Rng.int r 1000 in
  let i3 = Rng.int r max_int in
  Alcotest.(check (list int)) "int" [ 1; 551; 1660607362696891601 ] [ i1; i2; i3 ];
  Alcotest.(check (float 0.)) "float" 0x1.d9715a8e0766cp-1 (Rng.float r 1.0);
  let b1 = Rng.bool r in
  let b2 = Rng.bool r in
  Alcotest.(check (list bool)) "bool" [ false; false ] [ b1; b2 ];
  Alcotest.(check bool) "bernoulli" false (Rng.bernoulli r 0.5);
  (* [log] and [cos] come from the platform's libm: allow their last bit *)
  Alcotest.(check (float 1e-12)) "gaussian" 0x1.1cdd0889a848fp-3
    (Rng.gaussian r ~mean:0. ~stddev:1.);
  Alcotest.(check int64) "after" (-7685848651408622531L) (Rng.bits64 r)

(* Minor words per draw, over enough draws that the measurement's own
   boxed floats vanish. *)
let words_per_draw draw =
  let r = Rng.create 1 in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (draw r))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_draws_allocate () =
  let a = [| 1; 2; 3 |] in
  let none name draw =
    let w = words_per_draw draw in
    if w > 0.01 then Alcotest.failf "%s allocates %.2f words per draw" name w
  in
  none "int" (fun r -> Rng.int r 1000);
  none "int_in" (fun r -> Rng.int_in r (-5) 5);
  none "pick" (fun r -> Rng.pick r a);
  none "shuffle" (fun r -> Rng.shuffle r a);
  none "bool" Rng.bool;
  none "bernoulli" (fun r -> Rng.bernoulli r 0.3);
  (* a float draw may box its result: two words *)
  let boxed name draw =
    let w = words_per_draw draw in
    if w > 2.01 then Alcotest.failf "%s allocates %.2f words per draw" name w
  in
  boxed "float" (fun r -> Rng.float r 1.0);
  boxed "float_in" (fun r -> Rng.float_in r 1.0 2.0);
  boxed "exponential" (fun r -> Rng.exponential r 2.0);
  boxed "gaussian" (fun r -> Rng.gaussian r ~mean:0. ~stddev:1.)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"int within bound" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let r = Rng.create seed in
        let v = Rng.int r bound in
        v >= 0 && v < bound);
    Test.make ~name:"float_in within range" ~count:500
      (pair small_int (pair (float_bound_exclusive 100.) (float_bound_exclusive 100.)))
      (fun (seed, (a, b)) ->
        let lo = Float.min a b and hi = Float.max a b in
        let r = Rng.create seed in
        let v = Rng.float_in r lo hi in
        v >= lo && (v < hi || hi = lo));
    Test.make ~name:"split streams diverge" ~count:200 small_int (fun seed ->
        let p = Rng.create seed in
        let c1 = Rng.split p in
        let c2 = Rng.split p in
        Rng.bits64 c1 <> Rng.bits64 c2);
  ]

let suites =
  [
    ( "sim.rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "copy snapshot" `Quick test_copy_snapshot;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
        Alcotest.test_case "float bounds" `Quick test_float_bounds;
        Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
        Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
        Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
        Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "pick" `Quick test_pick;
        Alcotest.test_case "known answers" `Quick test_known_answers;
        Alcotest.test_case "draws do not allocate" `Quick test_draws_allocate;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
