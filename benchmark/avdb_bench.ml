(* avdb-bench: the repository's benchmark.

     avdb_bench.exe --workload W --seed N --seconds S --trace 0|1
         one run of one workload; the last line of stdout is the JSON
         result ({"correct", "attempted", "failed", "metrics"})
     avdb_bench.exe --seed N [--sets 1|2] [--out DIR]
         every workload: one discarded warm-up run, then 7 rounds of runs in
         rotating workload order, each run in a fresh child process, then
         one traced run per workload; prints medians and quartiles and
         writes results.json plus the traces to DIR
     avdb_bench.exe --judge [--seed N]
         every workload once at 1/20 size, judged by the consistency oracle
     avdb_bench.exe --smoke
         every workload at about 1% size, traced and untraced, all
         metrics printed; the runtest rule *)

let usage =
  "usage: avdb_bench.exe [--workload W --seconds S --trace 0|1] [--seed N] [--sets 1|2] \
    [--out DIR] [--judge] [--smoke]"

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable sets : int;
  mutable out : string;
  mutable judge : bool;
  mutable smoke : bool;
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let parse argv =
  let a =
    {
      workload = None;
      seed = 1;
      seconds = 10.;
      trace = false;
      sets = 1;
      out = "_build/benchmark";
      judge = false;
      smoke = false;
    }
  in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" flag v
  in
  let rec go = function
    | "--workload" :: v :: rest ->
        a.workload <- Some v;
        go rest
    | "--seed" :: v :: rest ->
        a.seed <- int_arg "--seed" v;
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s >= 0. -> a.seconds <- s
        | _ -> die "--seconds expects a non-negative number, got %S" v);
        go rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> a.trace <- false | "1" -> a.trace <- true | _ -> die "--trace expects 0 or 1");
        go rest
    | "--sets" :: v :: rest ->
        a.sets <- int_arg "--sets" v;
        go rest
    | "--out" :: v :: rest ->
        a.out <- v;
        go rest
    | "--judge" :: rest ->
        a.judge <- true;
        go rest
    | "--smoke" :: rest ->
        a.smoke <- true;
        go rest
    | [] -> ()
    | x :: _ -> die "unknown argument %S\n%s" x usage
  in
  go (List.tl (Array.to_list argv));
  if a.sets < 1 || a.sets > 2 then die "--sets must be 1 or 2";
  a

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let workload_or_die name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))

let print_metrics (o : Run.outcome) =
  List.iter
    (fun (name, v) -> Printf.printf "%-16s %-36s %14.6g %s\n" o.Run.workload name v (Metric.unit_of name))
    o.Run.metrics

(* A failed run prints [FAIL <workload> <reason>]; exceptions escaping the
   system are classified the same way rather than left uncaught. *)
let fail_run name reason =
  Printf.printf "FAIL %s %s\n%!" name reason;
  exit 1

let guarded name f =
  match f () with
  | o -> o
  | exception Measure.Gate reason -> fail_run name reason
  | exception e -> fail_run name ("exception " ^ Printexc.to_string e)

let single a name =
  let w = workload_or_die name in
  mkdir_p a.out;
  let o =
    guarded name (fun () ->
        Run.run ~out:a.out w ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~scale:1.)
  in
  print_metrics o;
  print_endline (Run.result_line o)

(* Each workload once at 1/20 size on the next seed, every operation
   recorded and the history judged by the consistency oracle. *)
let judge a =
  let seed = a.seed + 1 in
  List.iter
    (fun (w : Workloads.t) ->
      let config = { w.Workloads.config with Avdb_core.Config.seed } in
      let n = Run.size w (1. /. 20.) in
      let verdict, oracle_s =
        guarded w.Workloads.name (fun () ->
            let inputs = w.Workloads.generate config ~n ~seed in
            Run.judge w config inputs ~n ~spans:(Spans.create ()) ~parent:(-1))
      in
      let module C = Avdb_check.Checker in
      if not (C.ok verdict) then
        fail_run w.Workloads.name (Format.asprintf "oracle: %a" C.pp_verdict verdict);
      let s = verdict.C.stats in
      Printf.printf
        "judge %-16s ok: seed %d, %d updates, %d history entries, %d strong ops linearized, %d \
         replica reads validated, checker %.3f s\n%!"
        w.Workloads.name seed n s.C.n_entries s.C.n_lin_ops s.C.n_replica_reads oracle_s)
    Workloads.all

(* Every workload at about 1% size, untraced and traced: both runs must be
   correct and print every metric with a finite value. Every end-to-end
   metric BENCHMARK.json names must be measured on every workload, and
   every per-layer one on at least one. *)
let smoke () =
  let never = ref (List.map fst (Metric.per_layer ())) in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun trace ->
          let name = w.Workloads.name in
          let o = guarded name (fun () -> Run.run w ~seed:1 ~seconds:0. ~trace ~scale:0.01) in
          List.iter
            (fun (metric, v) -> if not (Float.is_finite v) then fail_run name (metric ^ " is not finite"))
            o.Run.metrics;
          if trace then never := List.filter (fun m -> List.mem m o.Run.unmeasured) !never
          else List.iter (fun m -> fail_run name (m ^ " is not measured")) o.Run.unmeasured;
          print_metrics o)
        [ false; true ])
    Workloads.all;
  List.iter (fun m -> fail_run "smoke" (m ^ " is measured on no workload")) !never;
  print_endline "smoke: every workload correct, every metric printed"

let () =
  let a = parse Sys.argv in
  (match Lazy.force Metric.spec with _ -> () | exception Failure e -> die "%s" e);
  if a.smoke then smoke ()
  else if a.judge then judge a
  else
    match a.workload with
    | Some name -> single a name
    | None ->
        mkdir_p a.out;
        Orchestrate.main ~out:a.out ~seed:a.seed ~sets:a.sets
