open Avdb_metrics

(* --- Sketch --- *)

let sketch_of_list l =
  let s = Sketch.create () in
  List.iter (Sketch.add s) l;
  s

let test_sketch_exact_stats () =
  let s = sketch_of_list [ 4.; 1.; 3.; 2.; 5.; 0.; -2. ] in
  Alcotest.(check int) "count" 7 (Sketch.count s);
  Alcotest.(check int) "zero bucket counts non-positives" 2 (Sketch.zero_count s);
  Alcotest.(check (float 1e-9)) "min exact" (-2.) (Sketch.min s);
  Alcotest.(check (float 1e-9)) "max exact" 5. (Sketch.max s);
  Alcotest.(check (float 1e-9)) "sum exact" 13. (Sketch.sum s);
  Alcotest.(check (float 1e-9)) "mean exact" (13. /. 7.) (Sketch.mean s);
  let p50 = Sketch.percentile s 50. in
  Alcotest.(check bool) "percentile clamped into [min,max]" true
    (p50 >= -2. && p50 <= 5.);
  Sketch.add s nan;
  Sketch.add s infinity;
  Alcotest.(check int) "non-finite values ignored" 7 (Sketch.count s);
  let empty = Sketch.create () in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Sketch.percentile empty 50.));
  match Sketch.percentile s 101. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted p=101"

let test_sketch_relative_error () =
  (* 1..1000: the p-th percentile is ~10p, and every estimate must stay
     within the advertised 2% relative error (plus rank slack of one
     value, 0.1%). *)
  let s = sketch_of_list (List.init 1000 (fun i -> float_of_int (i + 1))) in
  List.iter
    (fun p ->
      let est = Sketch.percentile s p in
      let exact = Float.max 1. (p *. 10.) in
      Alcotest.(check bool)
        (Printf.sprintf "p%.1f=%f within 2%% of %f" p est exact)
        true
        (Float.abs (est -. exact) <= (0.021 *. exact) +. 1.))
    [ 1.; 10.; 25.; 50.; 75.; 90.; 99.; 99.9 ]

let test_sketch_merge_exact () =
  let a = sketch_of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  let b = sketch_of_list (List.init 100 (fun i -> float_of_int (i + 201))) in
  let m = Sketch.merge a b in
  Alcotest.(check int) "count adds" 200 (Sketch.count m);
  Alcotest.(check (float 1e-9)) "min from a" 1. (Sketch.min m);
  Alcotest.(check (float 1e-9)) "max from b" 300. (Sketch.max m);
  Alcotest.(check (float 1e-6)) "sum adds" (5050. +. 25050.) (Sketch.sum m);
  (* the merged bucket state is the pointwise sum of the inputs *)
  let add_counts acc (ix, n) =
    let prev = try List.assoc ix acc with Not_found -> 0 in
    (ix, prev + n) :: List.remove_assoc ix acc
  in
  let expected =
    List.sort compare
      (List.fold_left add_counts
         (List.fold_left add_counts [] (Sketch.buckets a))
         (Sketch.buckets b))
  in
  Alcotest.(check (list (pair int int))) "buckets sum pointwise" expected
    (List.sort compare (Sketch.buckets m));
  (* inputs are untouched *)
  Alcotest.(check int) "a unchanged" 100 (Sketch.count a);
  Alcotest.(check int) "b unchanged" 100 (Sketch.count b);
  (match Sketch.merge a (Sketch.create ~alpha:0.1 ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched alpha accepted");
  (* memory is a few hundred words no matter how many values went in *)
  let big = sketch_of_list (List.init 100_000 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check bool)
    (Printf.sprintf "fixed memory (%d words)" (Sketch.memory_words big))
    true
    (Sketch.memory_words big < 2048)

(* --- Ascii_table --- *)

let test_table_render () =
  let t = Ascii_table.create ~headers:[ "site"; "500"; "1000" ] in
  Ascii_table.add_int_row t "site0" [ 0; 0 ];
  Ascii_table.add_row t [ "site1"; "12"; "25" ];
  let rendered = Ascii_table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  Alcotest.(check bool) "header first" true
    (String.length (List.nth lines 0) >= 5 && String.sub (List.nth lines 0) 0 4 = "site");
  Alcotest.(check bool) "separator dashes" true
    (String.for_all (fun c -> c = '-' || c = ' ') (List.nth lines 1))

let test_table_arity_check () =
  let t = Ascii_table.create ~headers:[ "a"; "b" ] in
  match Ascii_table.add_row t [ "only-one" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "arity mismatch accepted"

let test_table_csv_quoting () =
  let t = Ascii_table.create ~headers:[ "name"; "value" ] in
  Ascii_table.add_row t [ "with,comma"; "with\"quote" ];
  Alcotest.(check string) "quoted csv" "name,value\n\"with,comma\",\"with\"\"quote\""
    (Ascii_table.to_csv t)

let test_table_csv_newline () =
  (* RFC 4180: a cell containing a line break must be quoted, and the break
     is preserved verbatim inside the quotes. *)
  let t = Ascii_table.create ~headers:[ "name"; "value" ] in
  Ascii_table.add_row t [ "line1\nline2"; "plain" ];
  Ascii_table.add_row t [ "\"already,\nquoted\""; "x" ];
  Alcotest.(check string) "newline cells quoted"
    "name,value\n\"line1\nline2\",plain\n\"\"\"already,\nquoted\"\"\",x"
    (Ascii_table.to_csv t)


(* --- Fairness --- *)

let test_jain_index () =
  Alcotest.(check (float 1e-9)) "equal shares" 1.0 (Fairness.jain_index [ 5.; 5.; 5. ]);
  Alcotest.(check (float 1e-9)) "one hog" (1. /. 3.) (Fairness.jain_index [ 9.; 0.; 0. ]);
  Alcotest.(check (float 1e-9)) "empty is fair" 1.0 (Fairness.jain_index []);
  Alcotest.(check (float 1e-9)) "all zero is fair" 1.0 (Fairness.jain_index [ 0.; 0. ]);
  Alcotest.(check (float 1e-3)) "mild skew" 0.9 (Fairness.jain_index [ 1.; 2. ] *. 1.);
  match Fairness.jain_index [ -1. ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative accepted"

let test_max_min_ratio () =
  Alcotest.(check (float 1e-9)) "ratio" 3.0 (Fairness.max_min_ratio [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "zero among positive" Float.infinity
    (Fairness.max_min_ratio [ 1.; 0. ]);
  Alcotest.(check (float 1e-9)) "all zero" 1.0 (Fairness.max_min_ratio [ 0.; 0. ]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Fairness.max_min_ratio [])

let test_spread () =
  Alcotest.(check (float 1e-9)) "spread" 4.0 (Fairness.spread [ 1.; 5.; 3. ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Fairness.spread [])

let qcheck_tests =
  let open QCheck in
  (* The mergeable state (integer buckets + exact extrema); compared with
     [Stdlib.compare] so empty sketches (nan extrema) still agree. *)
  let state s =
    ( Sketch.buckets s,
      Sketch.count s,
      Sketch.zero_count s,
      Sketch.min s,
      Sketch.max s )
  in
  let same a b =
    Stdlib.compare (state a) (state b) = 0
    && Float.abs (Sketch.sum a -. Sketch.sum b)
       <= 1e-9 *. Float.max 1. (Float.abs (Sketch.sum a))
  in
  let value_list =
    list_of_size Gen.(int_range 0 40) (float_range (-50.) 5000.)
  in
  [
    Test.make ~name:"sketch merge commutative" ~count:300
      (pair value_list value_list)
      (fun (xs, ys) ->
        let a = sketch_of_list xs and b = sketch_of_list ys in
        same (Sketch.merge a b) (Sketch.merge b a));
    Test.make ~name:"sketch merge associative" ~count:300
      (triple value_list value_list value_list)
      (fun (xs, ys, zs) ->
        let a = sketch_of_list xs
        and b = sketch_of_list ys
        and c = sketch_of_list zs in
        same
          (Sketch.merge (Sketch.merge a b) c)
          (Sketch.merge a (Sketch.merge b c)));
    Test.make ~name:"sketch merge = adding both value sets" ~count:300
      (pair value_list value_list)
      (fun (xs, ys) ->
        same (Sketch.merge (sketch_of_list xs) (sketch_of_list ys))
          (sketch_of_list (xs @ ys)));
    Test.make ~name:"sketch percentiles monotone and clamped" ~count:300
      (list_of_size Gen.(int_range 1 60) (float_range 0.01 10000.))
      (fun values ->
        let s = sketch_of_list values in
        let qs = List.map (Sketch.percentile s) [ 0.; 10.; 50.; 90.; 99.; 100. ] in
        let rec monotone = function
          | a :: (b :: _ as rest) -> a <= b && monotone rest
          | _ -> true
        in
        monotone qs
        && List.for_all (fun q -> q >= Sketch.min s && q <= Sketch.max s) qs);
    Test.make ~name:"jain index in [1/n, 1]" ~count:500
      (list_of_size Gen.(int_range 1 30) (float_bound_inclusive 100.))
      (fun values ->
        let j = Fairness.jain_index values in
        let n = float_of_int (List.length values) in
        j >= (1. /. n) -. 1e-9 && j <= 1. +. 1e-9);
  ]

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "sketch exact stats" `Quick test_sketch_exact_stats;
        Alcotest.test_case "sketch relative error" `Quick test_sketch_relative_error;
        Alcotest.test_case "sketch merge exact" `Quick test_sketch_merge_exact;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table arity check" `Quick test_table_arity_check;
        Alcotest.test_case "table csv quoting" `Quick test_table_csv_quoting;
        Alcotest.test_case "table csv newline quoting" `Quick test_table_csv_newline;
        Alcotest.test_case "jain index" `Quick test_jain_index;
        Alcotest.test_case "max/min ratio" `Quick test_max_min_ratio;
        Alcotest.test_case "spread" `Quick test_spread;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
