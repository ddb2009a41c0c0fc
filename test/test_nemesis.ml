(* The randomized nemesis as a unit test: fixed seeds must pass every
   whole-system invariant, runs must be reproducible (that is what makes
   a failing seed a bug report), and generated schedules must be
   well-formed. The CI sweep runs a much larger seed range through
   bin/avdb_nemesis_cli.exe. *)

open Avdb_chaos

let test_fixed_seeds () =
  let in_doubt_recovered = ref 0 in
  for seed = 0 to 9 do
    let report = Nemesis.check ~shrink:false (Nemesis.default ~seed) in
    if not (Nemesis.passed report) then
      Alcotest.failf "nemesis violation:@.%a" Nemesis.pp_report report;
    in_doubt_recovered :=
      !in_doubt_recovered + report.Nemesis.outcome.Nemesis.stats.Nemesis.in_doubt_recovered
  done;
  (* The sweep must actually exercise the recovery machinery, or a pass
     is vacuous. *)
  Alcotest.(check bool) "in-doubt recovery was exercised" true (!in_doubt_recovered > 0)

let test_epoch_seeds () =
  (* Mixed-class runs with epoch items under the oracle: the epoch
     invariants (sealed-prefix agreement, zero unsealed intents) and the
     checker's epoch convergence rule must hold under crashes, partitions
     and lossy windows — and the sweep must actually seal epochs. *)
  let sealed = ref 0 in
  for seed = 0 to 4 do
    let report =
      Nemesis.check ~shrink:false
        { (Nemesis.default ~seed) with Nemesis.n_epoch = 2; oracle = true }
    in
    if not (Nemesis.passed report) then
      Alcotest.failf "epoch nemesis violation:@.%a" Nemesis.pp_report report;
    sealed := !sealed + report.Nemesis.outcome.Nemesis.stats.Nemesis.epochs_sealed
  done;
  Alcotest.(check bool) "epochs were sealed" true (!sealed > 0)

let test_deterministic () =
  let cfg = Nemesis.default ~seed:42 in
  let schedule = Nemesis.generate cfg in
  Alcotest.(check bool) "schedule is reproducible" true (Nemesis.generate cfg = schedule);
  let a = Nemesis.execute cfg schedule and b = Nemesis.execute cfg schedule in
  Alcotest.(check bool) "execution is reproducible" true (a = b)

(* The oracle history holds the faults the nemesis injected: a crash and a
   recovery per scheduled crash window, at the window's edges, printed as
   "!! siteN crashed" / "!! siteN recovered" lines. *)
let test_oracle_records_faults () =
  let module H = Avdb_check.History in
  let cfg = { (Nemesis.default ~seed:3) with Nemesis.oracle = true } in
  let schedule = Nemesis.generate cfg in
  let ms = Avdb_sim.Time.of_ms in
  let expected =
    List.concat_map
      (function
        | Nemesis.Crash { site; at_ms; for_ms } ->
            [ (site, ms at_ms, H.Crashed); (site, ms (at_ms +. for_ms), H.Recovered) ]
        | _ -> [])
      schedule
  in
  Alcotest.(check bool) "the schedule crashes sites" true (expected <> []);
  let outcome = Nemesis.execute cfg schedule in
  Alcotest.(check (list string)) "no violations" [] outcome.Nemesis.violations;
  let h = Option.get outcome.Nemesis.history in
  Alcotest.(check bool) "one crash and one recovery per window" true
    (List.sort compare expected
    = List.sort compare (List.map (fun f -> (f.H.f_site, f.H.f_at, f.H.f_kind)) (H.faults h)));
  let lines = String.split_on_char '\n' (Format.asprintf "%a" H.pp h) in
  let printed verb =
    List.length
      (List.filter
         (fun l -> String.starts_with ~prefix:"!! site" l && List.mem verb (String.split_on_char ' ' l))
         lines)
  in
  Alcotest.(check int) "crash lines" (List.length expected / 2) (printed "crashed");
  Alcotest.(check int) "recovery lines" (List.length expected / 2) (printed "recovered")

let window_end = function
  | Nemesis.Crash { at_ms; for_ms; _ }
  | Nemesis.Partition { at_ms; for_ms; _ }
  | Nemesis.Drop { at_ms; for_ms; _ }
  | Nemesis.Duplicate { at_ms; for_ms; _ }
  | Nemesis.Reorder { at_ms; for_ms; _ } ->
      at_ms +. for_ms
  | Nemesis.Disk_fault { at_ms; _ } -> at_ms

let test_schedules_well_formed () =
  for seed = 0 to 19 do
    let cfg = Nemesis.default ~seed in
    let schedule = Nemesis.generate cfg in
    List.iter
      (fun f ->
        Alcotest.(check bool) "window closes before the horizon" true
          (window_end f < cfg.Nemesis.horizon_ms))
      schedule;
    (* Crash windows never overlap on the same site: overlapping windows
       would ask to crash an already-down site. *)
    let crashes =
      List.filter_map
        (function
          | Nemesis.Crash { site; at_ms; for_ms } -> Some (site, at_ms, at_ms +. for_ms)
          | _ -> None)
        schedule
    in
    List.iteri
      (fun i (s1, a1, e1) ->
        List.iteri
          (fun j (s2, a2, e2) ->
            if i < j && s1 = s2 then
              Alcotest.(check bool) "same-site crash windows disjoint" true
                (e1 <= a2 || e2 <= a1))
          crashes)
      crashes
  done

let suites =
  [
    ( "chaos.nemesis",
      [
        Alcotest.test_case "fixed seeds pass" `Slow test_fixed_seeds;
        Alcotest.test_case "epoch seeds pass" `Slow test_epoch_seeds;
        Alcotest.test_case "deterministic replay" `Quick test_deterministic;
        Alcotest.test_case "oracle records faults" `Quick test_oracle_records_faults;
        Alcotest.test_case "schedules well-formed" `Quick test_schedules_well_formed;
      ] );
  ]
