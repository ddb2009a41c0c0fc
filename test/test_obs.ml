(* The observability subsystem: span collection and causal linking across
   RPC boundaries, the unified metrics registry, periodic snapshots with
   invariant probes, exporter well-formedness, and the determinism of the
   whole pipeline under a fixed seed. *)

open Avdb_sim
open Avdb_core
open Avdb_av
module Obs = Avdb_obs

(* --- a minimal JSON validator (RFC 8259 grammar, no decoding) --- *)

exception Bad of int

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail () = raise (Bad !pos) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then advance () else fail () in
  let literal lit = String.iter expect lit in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail ()
              done;
              go ()
          | _ -> fail ())
      | Some c when Char.code c >= 0x20 ->
          advance ();
          go ()
      | _ -> fail ()
    in
    go ()
  in
  let digits () =
    match peek () with
    | Some ('0' .. '9') ->
        let rec go () =
          match peek () with
          | Some ('0' .. '9') ->
              advance ();
              go ()
          | _ -> ()
        in
        go ()
    | _ -> fail ()
  in
  let number () =
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then (
      advance ();
      digits ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '"' -> string_lit ()
    | Some '{' -> (
        advance ();
        skip_ws ();
        match peek () with
        | Some '}' -> advance ()
        | _ ->
            let rec members () =
              skip_ws ();
              string_lit ();
              skip_ws ();
              expect ':';
              value ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> fail ()
            in
            members ())
    | Some '[' -> (
        advance ();
        skip_ws ();
        match peek () with
        | Some ']' -> advance ()
        | _ ->
            let rec elements () =
              value ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements ()
              | Some ']' -> advance ()
              | _ -> fail ()
            in
            elements ())
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail ());
    skip_ws ()
  in
  match
    value ();
    if !pos <> n then fail ()
  with
  | () -> Ok ()
  | exception Bad i -> Error i

let check_json label s =
  match validate_json s with
  | Ok () -> ()
  | Error i ->
      Alcotest.failf "%s: invalid JSON at byte %d: ...%s..." label i
        (String.sub s (Stdlib.max 0 (i - 30)) (Stdlib.min 60 (String.length s - Stdlib.max 0 (i - 30))))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- tracer --- *)

let test_tracer_basics () =
  let tr = Obs.Tracer.create () in
  let root = Obs.Tracer.start tr ~at:(Time.of_us 10) ~site:1 ~category:"update" "outer" in
  let child = Obs.Tracer.start tr ~at:(Time.of_us 20) ~parent:root ~site:1 ~category:"av" "inner" in
  Obs.Tracer.set_field tr child "item" "widget";
  Obs.Tracer.set_field tr child "need" "10";
  Obs.Tracer.finish tr ~at:(Time.of_us 35) child;
  Obs.Tracer.finish tr ~at:(Time.of_us 40) root;
  Obs.Tracer.finish tr ~at:(Time.of_us 99) root (* idempotent *);
  let get id = Option.get (Obs.Tracer.find tr id) in
  let r = get root and c = get child in
  Alcotest.(check (option int)) "child links parent" (Some root) c.Obs.Span.parent;
  Alcotest.(check (option int)) "root has no parent" None r.Obs.Span.parent;
  Alcotest.(check bool) "both finished" true
    (Obs.Span.is_finished r && Obs.Span.is_finished c);
  Alcotest.(check int) "root stop kept first finish" 40
    (Time.to_us (Option.get r.Obs.Span.stop));
  Alcotest.(check int) "child duration" 15 (Time.to_us (Option.get (Obs.Span.duration c)));
  Alcotest.(check (list (pair string string))) "fields in set order"
    [ ("item", "widget"); ("need", "10") ]
    (Obs.Span.fields c);
  Obs.Tracer.warn tr child;
  Alcotest.(check bool) "warned" true (c.Obs.Span.status = Obs.Span.Warn);
  let i =
    Obs.Tracer.instant tr ~at:(Time.of_us 50) ~site:2 ~category:"fault"
      ~fields:[ ("epoch", "1") ] "fault.crash"
  in
  Alcotest.(check bool) "instant is finished" true (Obs.Span.is_finished (get i));
  Alcotest.(check int) "creation order" 3 (List.length (Obs.Tracer.spans tr))

let test_tracer_capacity () =
  let tr = Obs.Tracer.create ~capacity:2 () in
  let a = Obs.Tracer.start tr ~at:Time.zero ~category:"t" "a" in
  let b = Obs.Tracer.start tr ~at:Time.zero ~category:"t" "b" in
  let c = Obs.Tracer.start tr ~at:Time.zero ~category:"t" "c" in
  Alcotest.(check (list int)) "ids still dense" [ 1; 2; 3 ] [ a; b; c ];
  (* the first overflow appends one self-describing warn span, allowed
     one past capacity, so a truncated export says it is truncated *)
  Alcotest.(check int) "retained" 3 (Obs.Tracer.length tr);
  Alcotest.(check int) "dropped" 1 (Obs.Tracer.dropped tr);
  Alcotest.(check bool) "dropped id not found" true (Obs.Tracer.find tr c = None);
  let names = List.map (fun s -> s.Obs.Span.name) (Obs.Tracer.spans tr) in
  Alcotest.(check (list string)) "capacity span appended" [ "a"; "b"; "tracer.capacity" ]
    names;
  let cap_span =
    List.find (fun s -> s.Obs.Span.name = "tracer.capacity") (Obs.Tracer.spans tr)
  in
  Alcotest.(check bool) "capacity span warns" true (cap_span.Obs.Span.status = Obs.Span.Warn);
  Alcotest.(check (list (pair string string))) "capacity span names the cap"
    [ ("capacity", "2") ]
    (Obs.Span.fields cap_span);
  (* a second overflow only bumps the counter *)
  let d = Obs.Tracer.start tr ~at:Time.zero ~category:"t" "d" in
  Alcotest.(check int) "id after capacity span" 5 d;
  Alcotest.(check int) "still 3 retained" 3 (Obs.Tracer.length tr);
  Alcotest.(check int) "dropped twice" 2 (Obs.Tracer.dropped tr);
  (* mutations on a dropped id must be harmless *)
  Obs.Tracer.set_field tr c "k" "v";
  Obs.Tracer.warn tr c;
  Obs.Tracer.finish tr ~at:(Time.of_us 5) c

(* [instant] is the one-allocation shortcut for zero-duration spans; it
   must produce exactly the span the historical start -> set_field* ->
   warn? -> finish sequence did, id aside. *)
let test_tracer_instant_equivalence () =
  let longhand = Obs.Tracer.create () in
  let id = Obs.Tracer.start longhand ~at:(Time.of_us 7) ~parent:5 ~site:2 ~category:"c" "n" in
  Obs.Tracer.set_field longhand id "a" "1";
  Obs.Tracer.set_field longhand id "b" "2";
  Obs.Tracer.warn longhand id;
  Obs.Tracer.finish longhand ~at:(Time.of_us 7) id;
  let shorthand = Obs.Tracer.create () in
  let id' =
    Obs.Tracer.instant shorthand ~at:(Time.of_us 7) ~parent:5 ~site:2 ~status:Obs.Span.Warn
      ~fields:[ ("a", "1"); ("b", "2") ]
      ~category:"c" "n"
  in
  Alcotest.(check int) "same id allocation" id id';
  let l = Option.get (Obs.Tracer.find longhand id) in
  let s = Option.get (Obs.Tracer.find shorthand id') in
  Alcotest.(check bool) "identical span" true (l = s);
  Alcotest.(check (list (pair string string))) "fields in set order"
    [ ("a", "1"); ("b", "2") ]
    (Obs.Span.fields s)

let test_tracer_disabled () =
  let tr = Obs.Tracer.create ~enabled:false () in
  Alcotest.(check bool) "reports disabled" false (Obs.Tracer.enabled tr);
  let a = Obs.Tracer.start tr ~at:Time.zero ~category:"t" "a" in
  let b = Obs.Tracer.instant tr ~at:Time.zero ~category:"t" "b" in
  Alcotest.(check (list int)) "both null_id" [ Obs.Tracer.null_id; Obs.Tracer.null_id ] [ a; b ];
  (* the null id must be dead: mutations no-op, lookups miss *)
  Obs.Tracer.set_field tr a "k" "v";
  Obs.Tracer.warn tr a;
  Obs.Tracer.finish tr ~at:(Time.of_us 1) a;
  Alcotest.(check int) "nothing retained" 0 (Obs.Tracer.length tr);
  Alcotest.(check int) "nothing dropped either" 0 (Obs.Tracer.dropped tr);
  Alcotest.(check bool) "null_id not found" true (Obs.Tracer.find tr a = None);
  (* re-enabling starts real ids above null_id and never resurrects it *)
  Obs.Tracer.set_enabled tr true;
  let c = Obs.Tracer.start tr ~at:Time.zero ~category:"t" "c" in
  Alcotest.(check bool) "real id after re-enable" true (c <> Obs.Tracer.null_id);
  Obs.Tracer.set_field tr Obs.Tracer.null_id "k" "v";
  Alcotest.(check bool) "null_id still dead" true (Obs.Tracer.find tr Obs.Tracer.null_id = None);
  Alcotest.(check int) "only the live span retained" 1 (Obs.Tracer.length tr)

(* Head sampling discards whole trees; the tail overrules it for spans
   that warn or run slow. [sample_rate = 0.] makes the head verdict
   "discard everything", isolating each tail rule. *)
let test_sampling_tail_promotion () =
  let tr = Obs.Tracer.create ~sample_rate:0. ~slow:(Time.of_ms 5.) () in
  let a = Obs.Tracer.start tr ~at:Time.zero ~category:"t" "a" in
  Alcotest.(check bool) "pending span is not recording" false (Obs.Tracer.recording tr a);
  Obs.Tracer.finish tr ~at:(Time.of_us 10) a;
  Alcotest.(check bool) "fast ok span sampled out" true (Obs.Tracer.find tr a = None);
  Alcotest.(check int) "counted as sampled_out" 1 (Obs.Tracer.sampled_out tr);
  (* a warn leaf drags its still-pending ancestor into the retained set *)
  let b = Obs.Tracer.start tr ~at:Time.zero ~category:"t" "b" in
  let c = Obs.Tracer.start tr ~at:(Time.of_us 1) ~parent:b ~category:"t" "c" in
  Obs.Tracer.set_field tr c "item" "widget";
  Obs.Tracer.warn tr c;
  Alcotest.(check bool) "promoted span is recording" true (Obs.Tracer.recording tr c);
  Obs.Tracer.finish tr ~at:(Time.of_us 5) c;
  Obs.Tracer.finish tr ~at:(Time.of_us 9) b;
  Alcotest.(check bool) "warn promotes the leaf" true (Obs.Tracer.find tr c <> None);
  Alcotest.(check bool) "and its pending ancestor" true (Obs.Tracer.find tr b <> None);
  Alcotest.(check (option (list (pair string string)))) "fields set while pending survive"
    (Some [ ("item", "widget") ])
    (Option.map Obs.Span.fields (Obs.Tracer.find tr c));
  (* a slow finish promotes even without a warn *)
  let d = Obs.Tracer.start tr ~at:Time.zero ~category:"t" "d" in
  Obs.Tracer.finish tr ~at:(Time.of_ms 6.) d;
  Alcotest.(check bool) "slow span promoted" true (Obs.Tracer.find tr d <> None);
  Alcotest.(check int) "only the fast ok span was sampled out" 1
    (Obs.Tracer.sampled_out tr);
  Alcotest.(check int) "sampling is never 'dropped'" 0 (Obs.Tracer.dropped tr);
  (* a warn-status instant survives a zero sample rate too *)
  let i =
    Obs.Tracer.instant tr ~at:(Time.of_us 50) ~status:Obs.Span.Warn ~category:"t" "i"
  in
  Alcotest.(check bool) "warn instant retained" true (Obs.Tracer.find tr i <> None);
  let j = Obs.Tracer.instant tr ~at:(Time.of_us 51) ~category:"t" "j" in
  Alcotest.(check bool) "ok instant sampled out" true (Obs.Tracer.find tr j = None)

let test_sampling_deterministic_hash () =
  let run () =
    let tr = Obs.Tracer.create ~sample_rate:0.25 ~seed:7 () in
    for k = 0 to 399 do
      let root = Obs.Tracer.start tr ~at:(Time.of_us k) ~category:"t" "r" in
      let child = Obs.Tracer.start tr ~at:(Time.of_us k) ~parent:root ~category:"t" "c" in
      Obs.Tracer.finish tr ~at:(Time.of_us (k + 1)) child;
      Obs.Tracer.finish tr ~at:(Time.of_us (k + 2)) root
    done;
    tr
  in
  let t1 = run () and t2 = run () in
  Alcotest.(check string) "same seed, same sampled trees"
    (Obs.Exporter.spans_to_jsonl t1) (Obs.Exporter.spans_to_jsonl t2);
  let roots = List.filter (fun s -> s.Obs.Span.parent = None) (Obs.Tracer.spans t1) in
  let n = List.length roots in
  Alcotest.(check bool) (Printf.sprintf "rate honored (%d/400 kept)" n) true
    (n > 40 && n < 160);
  (* children inherit the root verdict: every retained child's parent is
     retained, so trees are kept or discarded whole *)
  List.iter
    (fun s ->
      match s.Obs.Span.parent with
      | None -> ()
      | Some p ->
          Alcotest.(check bool) "child only kept with its root" true
            (Obs.Tracer.find t1 p <> None))
    (Obs.Tracer.spans t1);
  Alcotest.(check int) "discards counted" (2 * (400 - n)) (Obs.Tracer.sampled_out t1)

(* --- registry --- *)

let test_registry () =
  let r = Obs.Registry.create () in
  let c1 = Obs.Registry.counter r "hits" ~labels:[ ("site", "1") ] in
  let c2 = Obs.Registry.counter r "hits" ~labels:[ ("site", "1") ] in
  Obs.Registry.inc c1 2;
  Obs.Registry.inc c2 3;
  Alcotest.(check int) "re-registration shares the instrument" 5
    (Obs.Registry.counter_value c1);
  (match Obs.Registry.histogram r "hits" ~labels:[ ("site", "1") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  Obs.Registry.gauge r "level" (fun () -> 7.5);
  (match Obs.Registry.gauge r "level" (fun () -> 0.) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate gauge accepted");
  let h = Obs.Registry.histogram r "lat" in
  Obs.Registry.snapshot r ~at:(Time.of_ms 1.);
  Obs.Registry.observe h 10.;
  Obs.Registry.observe h 20.;
  Obs.Registry.snapshot r ~at:(Time.of_ms 2.);
  Alcotest.(check int) "two snapshots" 2 (Obs.Registry.snapshot_count r);
  let samples = Obs.Registry.samples r in
  let value ~at name =
    match
      List.find_opt
        (fun s -> s.Obs.Registry.name = name && Time.equal s.Obs.Registry.at at)
        samples
    with
    | Some s -> s.Obs.Registry.value
    | None -> Alcotest.failf "sample %s missing" name
  in
  Alcotest.(check (float 1e-9)) "counter sampled" 5. (value ~at:(Time.of_ms 1.) "hits");
  Alcotest.(check (float 1e-9)) "gauge sampled" 7.5 (value ~at:(Time.of_ms 1.) "level");
  Alcotest.(check (float 1e-9)) "empty histogram count" 0.
    (value ~at:(Time.of_ms 1.) "lat.count");
  Alcotest.(check (float 1e-9)) "histogram count" 2. (value ~at:(Time.of_ms 2.) "lat.count");
  Alcotest.(check (float 1e-9)) "histogram mean" 15. (value ~at:(Time.of_ms 2.) "lat.mean");
  Alcotest.(check string) "series key"
    "av.available{site=1,item=p3}"
    (Obs.Registry.series_key ~name:"av.available"
       ~labels:[ ("site", "1"); ("item", "p3") ])

let test_registry_retention_bound () =
  let r = Obs.Registry.create ~retention:4 () in
  let c = Obs.Registry.counter r "hits" in
  Obs.Registry.gauge r "level" (fun () -> 1.);
  for k = 1 to 50 do
    Obs.Registry.inc c 1;
    Obs.Registry.snapshot r ~at:(Time.of_us k)
  done;
  Alcotest.(check int) "snapshot_count sees every snapshot" 50
    (Obs.Registry.snapshot_count r);
  let samples = Obs.Registry.samples r in
  Alcotest.(check int) "each series keeps only the retention window" 8
    (List.length samples);
  (* the window is the most recent samples, still chronological *)
  let hits = List.filter (fun s -> s.Obs.Registry.name = "hits") samples in
  Alcotest.(check (list int)) "oldest fell off the back" [ 47; 48; 49; 50 ]
    (List.map (fun s -> Time.to_us s.Obs.Registry.at) hits);
  Alcotest.(check (list (float 1e-9))) "values follow the counter" [ 47.; 48.; 49.; 50. ]
    (List.map (fun s -> s.Obs.Registry.value) hits);
  (* memory is bounded: once the rings wrapped, more snapshots cost nothing *)
  let at_50 = Obs.Registry.footprint_words r in
  for k = 51 to 500 do
    Obs.Registry.snapshot r ~at:(Time.of_us k)
  done;
  Alcotest.(check int) "footprint stable after wrap" at_50 (Obs.Registry.footprint_words r);
  Alcotest.(check int) "n_series" 2 (Obs.Registry.n_series r)

let starts_with s prefix =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_metrics_csv_shapes () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "hits" ~labels:[ ("site", "1") ] in
  Obs.Registry.inc c 3;
  Obs.Registry.snapshot r ~at:(Time.of_ms 1.);
  Obs.Registry.snapshot r ~at:(Time.of_ms 2.);
  (* one series: the auto entry point stays wide *)
  Alcotest.(check string) "auto = wide below the limit" (Obs.Exporter.series_csv r)
    (Obs.Exporter.metrics_csv r);
  Alcotest.(check bool) "wide header pivots series" true
    (starts_with (Obs.Exporter.series_csv r) "time_ms,hits{site=1}");
  (* the long shape can be forced *)
  let long = Obs.Exporter.metrics_csv ~wide:false r in
  (match String.split_on_char '\n' long with
  | header :: rows ->
      Alcotest.(check string) "long header" "time_ms,name,labels,value" header;
      Alcotest.(check int) "one row per sample" 2
        (List.length (List.filter (fun l -> l <> "") rows));
      Alcotest.(check bool) "row carries name and labels" true
        (contains long "hits" && contains long "site=1")
  | [] -> Alcotest.fail "empty long csv");
  (* above the limit the auto entry point switches to long *)
  let big = Obs.Registry.create () in
  for i = 0 to Obs.Exporter.wide_series_limit do
    ignore (Obs.Registry.counter big ~labels:[ ("i", string_of_int i) ] "c")
  done;
  Obs.Registry.snapshot big ~at:Time.zero;
  Alcotest.(check bool) "registry really is over the limit" true
    (Obs.Registry.n_series big > Obs.Exporter.wide_series_limit);
  Alcotest.(check bool) "auto = long above the limit" true
    (starts_with (Obs.Exporter.metrics_csv big) "time_ms,name,labels,value")

(* --- cluster fixtures --- *)

let small_config () =
  {
    Config.default with
    Config.n_sites = 3;
    products = [ Product.regular "widget" ~initial_amount:100 ];
    seed = 99;
  }

let force_ok = function Ok () -> () | Error e -> Alcotest.fail e

(* Reshape AV to Fig. 1 (40/20/40) and sell 30 at site 1: the shortage of
   10 forces one AV transfer from the base. *)
let run_forced_transfer ?(config = small_config ()) () =
  let cluster = Cluster.create config in
  let av i = Site.av_table (Cluster.site cluster i) in
  force_ok (Av_table.entry_withdraw (Av_table.entry_or_no_entry (av 0) ~item:"widget") 34);
  force_ok (Av_table.entry_deposit (Av_table.entry_or_no_entry (av 0) ~item:"widget") 40);
  force_ok (Av_table.entry_withdraw (Av_table.entry_or_no_entry (av 1) ~item:"widget") 33);
  force_ok (Av_table.entry_deposit (Av_table.entry_or_no_entry (av 1) ~item:"widget") 20);
  force_ok (Av_table.entry_withdraw (Av_table.entry_or_no_entry (av 2) ~item:"widget") 33);
  force_ok (Av_table.entry_deposit (Av_table.entry_or_no_entry (av 2) ~item:"widget") 40);
  let result = ref None in
  Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-30) (fun r ->
      result := Some r);
  Cluster.run cluster;
  (match !result with
  | Some r when Update.is_applied r -> ()
  | _ -> Alcotest.fail "forced transfer did not apply");
  cluster

let span_named tracer name =
  match List.find_opt (fun s -> s.Obs.Span.name = name) (Obs.Tracer.spans tracer) with
  | Some s -> s
  | None -> Alcotest.failf "span %S missing" name

let parent_of tracer (sp : Obs.Span.t) =
  match sp.Obs.Span.parent with
  | None -> Alcotest.failf "span %S has no parent" sp.Obs.Span.name
  | Some pid -> (
      match Obs.Tracer.find tracer pid with
      | Some p -> p
      | None -> Alcotest.failf "parent of %S not retained" sp.Obs.Span.name)

let test_av_span_tree () =
  let cluster = run_forced_transfer () in
  let tracer = Cluster.tracer cluster in
  (* Walk the causal chain upward from the donor-side grant: it must cross
     the RPC boundary (different sites on the two ends) and bottom out at
     the requester's update root. *)
  let grant = span_named tracer "av.grant" in
  Alcotest.(check (option int)) "grant runs at the donor" (Some 0) grant.Obs.Span.site;
  let serve = parent_of tracer grant in
  Alcotest.(check string) "grant nests in the serve span" "serve:av_request"
    serve.Obs.Span.name;
  let call = parent_of tracer serve in
  Alcotest.(check string) "serve links back to the call" "call:av_request"
    call.Obs.Span.name;
  Alcotest.(check (option int)) "call runs at the requester" (Some 1) call.Obs.Span.site;
  Alcotest.(check bool) "the edge crosses sites" true
    (call.Obs.Span.site <> serve.Obs.Span.site);
  let acquire = parent_of tracer call in
  Alcotest.(check string) "call nests in the acquisition" "av.acquire"
    acquire.Obs.Span.name;
  Alcotest.(check (option string)) "acquisition knows the item" (Some "widget")
    (List.assoc_opt "item" (Obs.Span.fields acquire));
  let root = parent_of tracer acquire in
  Alcotest.(check string) "rooted at the update" "update.delay" root.Obs.Span.name;
  Alcotest.(check (option int)) "root is a root" None root.Obs.Span.parent;
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        (Printf.sprintf "span %S finished" sp.Obs.Span.name)
        true (Obs.Span.is_finished sp))
    [ grant; serve; call; acquire; root ]

(* --- the paper's Accelerator events, as spans --- *)

let spans_named cluster name =
  List.filter (fun s -> s.Obs.Span.name = name) (Cluster.spans cluster)

let test_cluster_av_spans () =
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.products = [ Product.regular "widget" ~initial_amount:60 ];
        seed = 3;
      }
  in
  (* Force a transfer: drain beyond the local share (20 each). *)
  Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-30) (fun _ -> ());
  Cluster.run cluster;
  List.iter
    (fun name ->
      match spans_named cluster name with
      | [] -> Alcotest.failf "no %s span" name
      | spans ->
          List.iter
            (fun sp ->
              Alcotest.(check (option string)) (name ^ " names the item") (Some "widget")
                (List.assoc_opt "item" (Obs.Span.fields sp)))
            spans)
    [ "av.grant"; "av.acquire" ]

let test_cluster_fault_spans () =
  let cluster = Cluster.create { Config.default with Config.seed = 3 } in
  Site.crash (Cluster.site cluster 2);
  Site.recover (Cluster.site cluster 2);
  match
    List.filter (fun s -> s.Obs.Span.category = "fault") (Cluster.spans cluster)
  with
  | [ crash; recover ] ->
      Alcotest.(check string) "crash first" "fault.crash" crash.Obs.Span.name;
      Alcotest.(check bool) "crash is a warning" true (crash.Obs.Span.status = Obs.Span.Warn);
      Alcotest.(check (option int)) "at the crashed site" (Some 2) crash.Obs.Span.site;
      Alcotest.(check string) "then the recovery" "fault.recover" recover.Obs.Span.name
  | spans -> Alcotest.failf "expected crash + recovery, got %d fault spans" (List.length spans)

let test_cluster_2pc_spans () =
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.products = [ Product.non_regular "special" ~initial_amount:10 ];
        seed = 3;
      }
  in
  Site.submit_update (Cluster.site cluster 1) ~item:"special" ~delta:(-1) (fun _ -> ());
  Cluster.run cluster;
  match spans_named cluster "2pc.decision" with
  | [ d ] ->
      Alcotest.(check (option string)) "committed" (Some "commit")
        (List.assoc_opt "decision" (Obs.Span.fields d))
  | spans -> Alcotest.failf "expected one decision, got %d" (List.length spans)

(* --- periodic snapshots --- *)

let test_snapshot_cadence () =
  let config = { (small_config ()) with Config.snapshot_interval = Some (Time.of_ms 10.) } in
  let cluster = Cluster.create config in
  let nth_update k = ((k mod 3), "widget", if k mod 3 = 0 then 2 else -1) in
  ignore (Runner.run cluster ~nth_update ~total_updates:20 ());
  let registry = Cluster.registry cluster in
  Alcotest.(check bool)
    (Printf.sprintf "enough snapshots (%d)" (Obs.Registry.snapshot_count registry))
    true
    (Obs.Registry.snapshot_count registry >= 9);
  List.iter
    (fun s ->
      let us = Time.to_us s.Obs.Registry.at in
      if us mod 10_000 <> 0 then
        Alcotest.failf "sample at %dus is off the 10ms cadence" us)
    (Obs.Registry.samples registry)

(* --- invariant probes --- *)

let test_invariant_probe () =
  let cluster = Cluster.create (small_config ()) in
  Cluster.snapshot_now cluster;
  let warns tracer =
    List.length
      (List.filter
         (fun s -> s.Obs.Span.category = "invariant")
         (Obs.Tracer.spans tracer))
  in
  Alcotest.(check int) "clean cluster has no violations" 0
    (warns (Cluster.tracer cluster));
  (* Conjure 5 units of AV out of thin air: conservation must trip. *)
  force_ok
    (Av_table.entry_deposit
       (Av_table.entry_or_no_entry (Site.av_table (Cluster.site cluster 0)) ~item:"widget")
       5);
  Cluster.snapshot_now cluster;
  let sp = span_named (Cluster.tracer cluster) "invariant.av_conservation" in
  Alcotest.(check bool) "violation span is a warning" true
    (sp.Obs.Span.status = Obs.Span.Warn);
  let latest_violations =
    List.fold_left
      (fun acc s ->
        if s.Obs.Registry.name = "invariant.violations" then s.Obs.Registry.value else acc)
      0.
      (Obs.Registry.samples (Cluster.registry cluster))
  in
  Alcotest.(check bool) "violations counter bumped" true (latest_violations >= 1.)

(* --- registration on first read --- *)

(* A site's series are registered when its shard's registry is first
   read, not when the site is built. Whether that read comes before a
   live join or after it, every site's series are registered once, in
   site order with the joiner last, and a snapshot samples the same
   series with the same values. *)
let test_first_read_registration () =
  let samples ~read_before_join =
    let cluster = Cluster.create (small_config ()) in
    if read_before_join then ignore (Cluster.registry cluster);
    ignore (Cluster.add_retailer cluster (fun _ -> ()));
    Cluster.run cluster;
    Cluster.snapshot_now cluster;
    Obs.Registry.samples (Cluster.registry cluster)
  in
  let early = samples ~read_before_join:true in
  let late = samples ~read_before_join:false in
  Alcotest.(check bool) "same samples either way" true (early = late);
  Alcotest.(check (list string))
    "each site's series once, in site order, joiner last"
    [ "site0"; "site1"; "site2"; "site3" ]
    (List.filter_map
       (fun (s : Obs.Registry.sample) ->
         if s.Obs.Registry.name = "update.submitted" then
           List.assoc_opt "site" s.Obs.Registry.labels
         else None)
       late)

(* --- exporters --- *)

let seeded_scm_run ?(trace_sample = 1.) () =
  (* A tight catalogue (5 items, AV of 10 per site) so the workload actually
     exhausts AV and triggers cross-site transfers within 300 updates. *)
  let config =
    {
      Config.default with
      Config.products =
        Product.catalogue ~n_regular:5 ~n_non_regular:0 ~initial_amount:30;
      snapshot_interval = Some (Time.of_ms 50.);
      trace_sample;
    }
  in
  let cluster = Cluster.create config in
  let workload =
    Avdb_workload.Scm.create
      (Avdb_workload.Scm.paper_spec ~n_items:5 ~initial_amount:30 ())
      ~seed:2000
  in
  ignore
    (Runner.run cluster ~nth_update:(Avdb_workload.Scm.generator workload)
       ~total_updates:300 ());
  cluster

let test_exporters_well_formed () =
  let cluster = seeded_scm_run () in
  let tracer = Cluster.tracer cluster in
  let registry = Cluster.registry cluster in
  let chrome = Obs.Exporter.chrome_trace tracer in
  check_json "chrome trace" chrome;
  Alcotest.(check bool) "has traceEvents" true (contains chrome "\"traceEvents\"");
  Alcotest.(check bool) "has flow arrows for cross-site edges" true
    (contains chrome "\"ph\":\"s\"" && contains chrome "\"ph\":\"f\"");
  let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let span_lines = lines (Obs.Exporter.spans_to_jsonl tracer) in
  Alcotest.(check int) "jsonl covers every retained span"
    (Obs.Tracer.length tracer) (List.length span_lines);
  List.iter (check_json "span jsonl line") span_lines;
  List.iter (check_json "metric jsonl line") (lines (Obs.Exporter.metrics_to_jsonl registry));
  let csv = Obs.Exporter.series_csv registry in
  (match String.split_on_char '\n' csv with
  | header :: _ :: _ ->
      Alcotest.(check bool) "csv header leads with time_ms" true
        (String.length header >= 7 && String.sub header 0 7 = "time_ms")
  | _ -> Alcotest.fail "csv has no data rows")

(* A sampled run keeps a subset of the full run's trees — never novel
   spans — and every warn span of the full run survives sampling. *)
let test_sampled_run_is_a_subset () =
  let full = seeded_scm_run () in
  let sampled = seeded_scm_run ~trace_sample:0.1 () in
  let ids cluster =
    List.map (fun s -> s.Obs.Span.id) (Obs.Tracer.spans (Cluster.tracer cluster))
  in
  let full_ids = ids full and sampled_ids = ids sampled in
  Alcotest.(check bool) "sampling kept fewer spans" true
    (List.length sampled_ids < List.length full_ids);
  Alcotest.(check bool) "sampling kept some spans" true (sampled_ids <> []);
  Alcotest.(check int) "and counted the discards"
    (List.length full_ids - List.length sampled_ids)
    (Obs.Tracer.sampled_out (Cluster.tracer sampled));
  (* ids are allocated identically regardless of retention, so the span
     sets are directly comparable *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "sampled span %d exists in the full run" id)
        true (List.mem id full_ids))
    sampled_ids;
  List.iter
    (fun s ->
      if s.Obs.Span.status = Obs.Span.Warn then
        Alcotest.(check bool)
          (Printf.sprintf "warn span %d survived sampling" s.Obs.Span.id)
          true
          (List.mem s.Obs.Span.id sampled_ids))
    (Obs.Tracer.spans (Cluster.tracer full));
  (* the sampled run is itself reproducible, byte for byte *)
  let again = seeded_scm_run ~trace_sample:0.1 () in
  Alcotest.(check string) "same seed, same sampled export"
    (Obs.Exporter.spans_to_jsonl (Cluster.tracer sampled))
    (Obs.Exporter.spans_to_jsonl (Cluster.tracer again))

(* The scale story end to end: 100 sites under sampling, snapshots on,
   exports byte-identical across two same-seed runs and already in the
   long CSV shape (the series count is far past the wide pivot). *)
let sharded_run () =
  let config =
    {
      Config.default with
      Config.n_sites = 100;
      products = Product.catalogue ~n_regular:20 ~n_non_regular:0 ~initial_amount:50;
      snapshot_interval = Some (Time.of_ms 100.);
      trace_sample = 0.05;
      seed = 1234;
    }
  in
  let cluster = Cluster.create config in
  let nth_update k =
    ( k mod 100,
      "product" ^ string_of_int (k mod 20),
      if k mod 5 = 0 then 3 else -1 )
  in
  ignore (Runner.run cluster ~nth_update ~total_updates:800 ());
  cluster

let test_sharded_sampled_determinism () =
  let r1 = sharded_run () and r2 = sharded_run () in
  let export c =
    ( Obs.Exporter.spans_to_jsonl (Cluster.tracer c),
      Obs.Exporter.metrics_csv (Cluster.registry c),
      Obs.Exporter.metrics_to_jsonl (Cluster.registry c) )
  in
  let spans1, csv1, jsonl1 = export r1 in
  let spans2, csv2, jsonl2 = export r2 in
  Alcotest.(check bool) "sampling engaged" true
    (Obs.Tracer.sampled_out (Cluster.tracer r1) > 0);
  Alcotest.(check bool) "still retained spans" true
    (Obs.Tracer.length (Cluster.tracer r1) > 0);
  Alcotest.(check string) "same seed, same sampled span export" spans1 spans2;
  Alcotest.(check string) "same seed, same metrics csv" csv1 csv2;
  Alcotest.(check string) "same seed, same metrics jsonl" jsonl1 jsonl2;
  Alcotest.(check bool) "100 sites push the csv into long shape" true
    (Obs.Registry.n_series (Cluster.registry r1) > Obs.Exporter.wide_series_limit);
  Alcotest.(check bool) "auto csv is long" true
    (String.length csv1 >= 26 && String.sub csv1 0 26 = "time_ms,name,labels,value\n")

(* --- consistency-lag probes --- *)

let last_value samples ~name ~labels =
  List.fold_left
    (fun acc (s : Obs.Registry.sample) ->
      if s.Obs.Registry.name = name && s.Obs.Registry.labels = labels then
        Some s.Obs.Registry.value
      else acc)
    None samples

let test_lag_probes () =
  (* syncs on, so the run also exercises correspondence application and
     stamps the replica-freshness probe *)
  let config =
    { (small_config ()) with Config.sync_interval = Some (Time.of_ms 10.) }
  in
  let cluster = run_forced_transfer ~config () in
  Cluster.snapshot_now cluster;
  let samples = Obs.Registry.samples (Cluster.registry cluster) in
  (* site 1 went short by 10 and asked a donor: the shortage-rate and
     grant-latency probes must have seen it *)
  (match last_value samples ~name:"av.shortage_rate" ~labels:[ ("site", "site1") ] with
  | Some v -> Alcotest.(check bool) "shortage rate positive" true (v > 0.)
  | None -> Alcotest.fail "av.shortage_rate{site=site1} missing");
  (match
     last_value samples ~name:"update.grant_latency_ms.count"
       ~labels:[ ("site", "site1") ]
   with
  | Some v -> Alcotest.(check bool) "a grant was timed" true (v >= 1.)
  | None -> Alcotest.fail "update.grant_latency_ms.count{site=site1} missing");
  (* the cluster-wide merged sketch sees the same grant *)
  (match last_value samples ~name:"update.grant_latency_ms.count" ~labels:[] with
  | Some v -> Alcotest.(check bool) "merged sketch has it too" true (v >= 1.)
  | None -> Alcotest.fail "unlabelled update.grant_latency_ms.count missing");
  (* idle fraction is a fraction *)
  List.iter
    (fun (s : Obs.Registry.sample) ->
      if s.Obs.Registry.name = "av.idle_fraction" then
        Alcotest.(check bool) "idle fraction in [0,1]" true
          (s.Obs.Registry.value >= 0. && s.Obs.Registry.value <= 1.))
    samples;
  (* per-item staleness: registered for every non-base replica, and 0 now
     that the run has quiesced (all sync counters delivered and applied) *)
  let lags =
    List.filter (fun (s : Obs.Registry.sample) -> s.Obs.Registry.name = "sync.version_lag") samples
  in
  Alcotest.(check bool) "version-lag gauges registered" true (lags <> []);
  List.iter
    (fun (s : Obs.Registry.sample) ->
      Alcotest.(check (float 1e-9)) "converged run has zero lag" 0. s.Obs.Registry.value)
    lags;
  (* apply-age: some site applied a peer's sync counters during the run *)
  Alcotest.(check bool) "a sync apply was stamped" true
    (List.exists
       (fun i -> Site.last_sync_apply (Cluster.site cluster i) <> None)
       [ 0; 1; 2 ])

(* --- offline report --- *)

let test_report_over_artifacts () =
  let cluster = seeded_scm_run ~trace_sample:0.5 () in
  let spans = Obs.Exporter.spans_to_jsonl (Cluster.tracer cluster) in
  let metrics = Obs.Exporter.metrics_to_jsonl (Cluster.registry cluster) in
  match
    Obs.Report.analyze
      ~spans:[ ("run.spans.jsonl", spans) ]
      ~metrics:[ ("run.metrics.jsonl", metrics) ]
  with
  | Error e -> Alcotest.failf "analyze failed: %s" e
  | Ok report ->
      Alcotest.(check int) "every span parsed"
        (Obs.Tracer.length (Cluster.tracer cluster))
        (Obs.Report.n_spans report);
      let text = Obs.Report.render report in
      List.iter
        (fun heading ->
          Alcotest.(check bool) (Printf.sprintf "section %S present" heading) true
            (contains text ("== " ^ heading ^ " ==")))
        [
          "span durations (ms, sketches merged across sites)";
          "critical path (direct children per root span)";
          "per-site fairness (final snapshot)";
          "staleness over time";
          "tracer";
          "registry memory";
        ];
      Alcotest.(check bool) "percentile table names the update root" true
        (contains text "update.delay");
      (match Obs.Report.registry_words_max report with
      | Some w -> Alcotest.(check bool) "registry.words surfaced" true (w > 0.)
      | None -> Alcotest.fail "registry.words gauge missing from artifacts")

let test_report_pinpoints_malformed_input () =
  (match Obs.Report.analyze ~spans:[] ~metrics:[ ("m.jsonl", "not json\n") ] with
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names file and line" e)
        true
        (String.length e >= 9 && String.sub e 0 9 = "m.jsonl:1")
  | Ok _ -> Alcotest.fail "malformed metrics accepted");
  match
    Obs.Report.analyze
      ~spans:[ ("s.jsonl", "{\"id\":1,\"name\":\"x\",\"category\":\"t\",\"start_us\":0,\"status\":\"ok\"}\n{\"id\":\n") ]
      ~metrics:[]
  with
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names the second line" e)
        true
        (String.length e >= 9 && String.sub e 0 9 = "s.jsonl:2")
  | Ok _ -> Alcotest.fail "malformed spans accepted"

let test_determinism () =
  let export cluster =
    ( Obs.Exporter.spans_to_jsonl (Cluster.tracer cluster),
      Obs.Exporter.series_csv (Cluster.registry cluster) )
  in
  let run1 = seeded_scm_run () in
  let run2 = seeded_scm_run () in
  let spans1, csv1 = export run1 in
  let spans2, csv2 = export run2 in
  Alcotest.(check bool) "traced something" true (String.length spans1 > 0);
  Alcotest.(check string) "same seed, same span tree" spans1 spans2;
  Alcotest.(check string) "same seed, same time series" csv1 csv2;
  Alcotest.(check string) "same seed, same chrome trace"
    (Obs.Exporter.chrome_trace (Cluster.tracer run1))
    (Obs.Exporter.chrome_trace (Cluster.tracer run2))

let test_tracing_flag_does_not_perturb_simulation () =
  (* The disabled-tracer fast path must change only observability, never
     the simulation: same seed with tracing off reaches the same replicas,
     metric counters and time series — just no spans. *)
  let run tracing =
    let config =
      {
        Config.default with
        Config.products = Product.catalogue ~n_regular:5 ~n_non_regular:0 ~initial_amount:30;
        snapshot_interval = Some (Time.of_ms 50.);
        tracing;
      }
    in
    let cluster = Cluster.create config in
    let workload =
      Avdb_workload.Scm.create
        (Avdb_workload.Scm.paper_spec ~n_items:5 ~initial_amount:30 ())
        ~seed:2000
    in
    ignore
      (Runner.run cluster ~nth_update:(Avdb_workload.Scm.generator workload)
         ~total_updates:300 ());
    cluster
  in
  let on = run true and off = run false in
  for i = 0 to 4 do
    let item = "product" ^ string_of_int i in
    Alcotest.(check (list int))
      (item ^ " replicas agree")
      (Cluster.replica_amounts on ~item)
      (Cluster.replica_amounts off ~item)
  done;
  Alcotest.(check int) "same correspondences" (Cluster.total_correspondences on)
    (Cluster.total_correspondences off);
  (* the tracer.* gauges exist to report tracing state, so they are the
     one family allowed to differ between the two runs *)
  let series cluster =
    List.filter_map
      (fun (s : Obs.Registry.sample) ->
        if String.length s.Obs.Registry.name >= 7 && String.sub s.Obs.Registry.name 0 7 = "tracer."
        then None
        else
          Some
            ( Time.to_us s.Obs.Registry.at,
              Obs.Registry.series_key ~name:s.Obs.Registry.name ~labels:s.Obs.Registry.labels,
              s.Obs.Registry.value ))
      (Obs.Registry.samples (Cluster.registry cluster))
  in
  Alcotest.(check bool) "same time series" true (series on = series off);
  Alcotest.(check bool) "tracing-on retained spans" true (Obs.Tracer.length (Cluster.tracer on) > 0);
  Alcotest.(check int) "tracing-off retained none" 0 (Obs.Tracer.length (Cluster.tracer off))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "tracer basics" `Quick test_tracer_basics;
        Alcotest.test_case "tracer capacity" `Quick test_tracer_capacity;
        Alcotest.test_case "tracer instant equivalence" `Quick test_tracer_instant_equivalence;
        Alcotest.test_case "tracer disabled" `Quick test_tracer_disabled;
        Alcotest.test_case "sampling tail promotion" `Quick test_sampling_tail_promotion;
        Alcotest.test_case "sampling deterministic hash" `Quick
          test_sampling_deterministic_hash;
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "registry retention bound" `Quick test_registry_retention_bound;
        Alcotest.test_case "metrics csv shapes" `Quick test_metrics_csv_shapes;
        Alcotest.test_case "av span tree crosses the wire" `Quick test_av_span_tree;
        Alcotest.test_case "cluster av spans" `Quick test_cluster_av_spans;
        Alcotest.test_case "cluster fault spans" `Quick test_cluster_fault_spans;
        Alcotest.test_case "cluster 2pc spans" `Quick test_cluster_2pc_spans;
        Alcotest.test_case "snapshot cadence" `Quick test_snapshot_cadence;
        Alcotest.test_case "invariant probe" `Quick test_invariant_probe;
        Alcotest.test_case "series registered on first read" `Quick
          test_first_read_registration;
        Alcotest.test_case "exporters well-formed" `Quick test_exporters_well_formed;
        Alcotest.test_case "sampled run is a subset" `Quick test_sampled_run_is_a_subset;
        Alcotest.test_case "sharded sampled determinism" `Slow
          test_sharded_sampled_determinism;
        Alcotest.test_case "consistency-lag probes" `Quick test_lag_probes;
        Alcotest.test_case "report over artifacts" `Quick test_report_over_artifacts;
        Alcotest.test_case "report pinpoints malformed input" `Quick
          test_report_pinpoints_malformed_input;
        Alcotest.test_case "deterministic exports" `Quick test_determinism;
        Alcotest.test_case "tracing flag does not perturb simulation" `Quick
          test_tracing_flag_does_not_perturb_simulation;
      ] );
  ]
