(* One benchmark run: what run.sh, the orchestrator and the smoke test all
   execute. Untraced runs report the end-to-end metrics, traced runs the
   per-layer ones. A failed correctness gate raises [Measure.Gate]. *)

open Avdb_core
module W = Workloads
module M = Measure

(* [unmeasured] names the reported metrics this workload does not measure;
   they read 0. *)
type outcome = {
  workload : string;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  unmeasured : string list;
}

let seconds_since t0 = float_of_int (Spans.now_ns () - t0) /. 1e9
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6
let size (w : W.t) scale = Int.max 100 (int_of_float (scale *. float_of_int w.W.updates))

(* The oracle's recording wrappers around a single-domain system. *)
let recording history system =
  let module H = Avdb_check.History in
  let engine = (System.engines system).(0) in
  {
    M.submit = H.submit_update history ~engine;
    read_local = H.read_local history ~engine;
    read_auth = H.read_authoritative history ~engine;
  }

(* Runs [n] updates under the recorder and asks the checker to judge the
   history; returns the verdict and the checker's wall time. Every
   workload's own configuration is single-domain. *)
let judge (w : W.t) config inputs ~n ~spans ~parent =
  let history = Avdb_check.History.create () in
  let r = M.rep w config inputs ~n ~traced:false ~spans ~parent ~client:(recording history) in
  let cluster =
    match r.M.system with
    | System.Seq c -> c
    | System.Par _ -> invalid_arg "Run.judge: single-domain systems only"
  in
  let snapshot = Avdb_check.Checker.snapshot_of_cluster cluster in
  Spans.within spans ~parent "check.oracle" (fun s ->
      let verdict = Avdb_check.Checker.check ~history snapshot in
      (verdict, seconds_since s.Spans.start_ns))

(* One set-up sample: [batch] systems built back to back, so that a
   sub-millisecond set-up is not timed one clock read at a time, from a
   collected heap, so that earlier garbage does not slow them. Returns the
   time per system, in seconds. *)
let setup_sample spans ~parent config ~batch =
  Gc.compact ();
  let s =
    Spans.within spans ~parent "setup" (fun s ->
        for _ = 1 to batch do
          ignore (Sys.opaque_identity (System.create config))
        done;
        Spans.field s "systems" (float_of_int batch);
        s)
  in
  float_of_int (Spans.duration s) /. float_of_int batch /. 1e9

(* What a traced run adds after its repetitions: the layer replays, the
   whole-system variants, the reconciliation of layer costs against the whole,
   and a judged run for the oracle's cost. [records] and [latencies] come
   from the first measured repetition; [median] reads the samples gathered
   so far. *)
let trace_extras (w : W.t) config inputs ~n ~scale ~rounds ~spans ~parent ~records ~latencies ~add
    ~median =
  let replay name f =
    let r = Spans.within spans ~parent ("replay." ^ name) (fun _ -> f ()) in
    add (name ^ "_replay_ns", r.Replay.ns);
    add (name ^ "_replay_words", r.Replay.words);
    r
  in
  let ops = Int.max 1000 (int_of_float (scale *. 100_000.)) in
  let event = replay "sim.event" (fun () -> Replay.event ~ops) in
  let av = replay "av.op" (fun () -> Replay.av_op ~ops inputs) in
  let apply = replay "store.apply" (fun () -> Replay.apply ~ops inputs) in
  if records <> [] then
    ignore (replay "store.wal_encode" (fun () -> Replay.wal_encode ~ops records));
  ignore
    (replay "net.send" (fun () -> Replay.send ~ops:(ops / 4) inputs ~n_sites:config.Config.n_sites));
  ignore (replay "net.rpc" (fun () -> Replay.rpc ~ops:(ops / 4)));
  let sketch =
    replay "metrics.sketch_add" (fun () -> Replay.sketch_add ~ops latencies)
  in
  (* Whole-system variants of the same updates at a quarter of the size,
     rotated round by round so that drift hits all of them evenly: the
     tracer off (the plain system), the tracer at a 1% head-sampling rate
     and, where the workload asks for it, two domains. *)
  let n_var = Int.max 100 (n / 4) in
  let variants =
    [ ("off", config); ("sampled", { config with Config.tracing = true; trace_sample = 0.01 }) ]
    @ if w.W.parallel then [ ("d2", { config with Config.domains = 2 }) ] else []
  in
  let ns_per_update = Hashtbl.create 8 in
  for round = 0 to rounds - 1 do
    List.iteri
      (fun j _ ->
        let name, config = List.nth variants ((round + j) mod List.length variants) in
        let r =
          Spans.within spans ~parent ("variant." ^ name) (fun s ->
              M.rep w config inputs ~n:n_var ~traced:false ~spans ~parent:s.Spans.id
                ~client:(fun _ -> M.direct))
        in
        Hashtbl.add ns_per_update name (float_of_int (r.M.drive_ns + r.M.drain_ns) /. float_of_int n_var);
        match name with
        | "sampled" ->
            let retained =
              List.fold_left (fun acc t -> acc + Avdb_obs.Tracer.length t) 0 (System.tracers r.M.system)
            in
            add ("obs.spans_per_update", float_of_int retained /. float_of_int n_var)
        | "d2" ->
            add ("sim.rounds_per_vs", float_of_int r.M.rounds /. Avdb_sim.Time.to_sec r.M.virtual_drive);
            add ("sim.ns_per_round", float_of_int r.M.drive_ns /. float_of_int r.M.rounds)
        | _ -> ())
      variants
  done;
  let variant name = Stats.median (Hashtbl.find_all ns_per_update name) in
  let plain_ns = variant "off" in
  add ("obs.sampled_over_off", plain_ns /. variant "sampled");
  if w.W.parallel then add ("sim.speedup_2_domains", plain_ns /. variant "d2");
  (* Every update dispatches its events, Delay updates touch the AV table,
     every WAL record is one row-store write, and every outcome lands in a
     latency sketch; the rest of an update's time is unaccounted for. *)
  let accounted =
    (median "sim.events_per_update" *. event.Replay.ns)
    +. (median "delay_updates_per_update" *. av.Replay.ns)
    +. (median "store.wal_records_per_update" *. apply.Replay.ns)
    +. sketch.Replay.ns
  in
  add ("layers.residual_share", 1. -. (accounted /. plain_ns));
  let verdict, oracle_s = judge w config inputs ~n:(Int.max 100 (n / 20)) ~spans ~parent in
  if not (Avdb_check.Checker.ok verdict) then
    M.fail "oracle: %s" (Format.asprintf "%a" Avdb_check.Checker.pp_verdict verdict);
  add ("check.oracle_s", oracle_s)

let run ?out (w : W.t) ~seed ~seconds ~trace ~scale =
  let config = { w.W.config with Config.seed } in
  let n = size w scale in
  let spans = Spans.create () in
  let root = Spans.start spans ~parent:(-1) w.W.name in
  let parent = root.Spans.id in
  let samples = Hashtbl.create 64 in
  let add (name, v) =
    Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))
  in
  let median name = Stats.median (Hashtbl.find samples name) in
  let inputs, gen = Spans.within spans ~parent "gen" (fun s -> (w.W.generate config ~n ~seed, s)) in
  add ("workload.gen_ns_per_update", float_of_int (Spans.duration gen) /. float_of_int n);
  let rep ~parent ~traced = M.rep w config inputs ~n ~traced ~spans ~parent ~client:(fun _ -> M.direct) in
  (* The peak heap is read after the first repetition of a fresh process:
     the warm-up, or the only repetition of a zero-second run. *)
  let peak_heap_mb = ref None in
  let read_peak () =
    if !peak_heap_mb = None then peak_heap_mb := Some (mb (Gc.quick_stat ()).Gc.top_heap_words)
  in
  if seconds > 0. then begin
    Spans.within spans ~parent "warmup" (fun s -> ignore (rep ~parent:s.Spans.id ~traced:false));
    read_peak ()
  end;
  let attempted = ref 0 and failed = ref 0 in
  (* Only what later steps need is kept from the first repetition: holding
     on to its system would double the heap the next ones run in. *)
  let records = ref [] and latencies = ref [||] in
  let probes = ref [] and setups = ref [] and batch = ref 1 in
  let start = Spans.now_ns () in
  let rec loop i =
    probes := Calibrate.probe () :: !probes;
    let r = rep ~parent ~traced:trace in
    read_peak ();
    attempted := !attempted + M.attempted r;
    failed := !failed + M.failed r;
    List.iter add (if trace then M.layer_counts r ~first:(i = 0) else M.e2e_samples r);
    if i = 0 then begin
      (* set-up batches of at least 20 ms *)
      batch := Int.max 1 (20_000_000 / Int.max 1 r.M.setup_ns);
      if trace then begin
        records := M.written_records r;
        latencies := M.commit_latencies_ms r
      end
    end;
    (* Two set-up samples per repetition: a set-up of a few hundred ms
       sometimes pays for one or two more major collections, and a median
       over few samples flips between the two. *)
    setups :=
      (if seconds > 0. then List.init 2 (fun _ -> setup_sample spans ~parent config ~batch:!batch)
       else [ float_of_int r.M.setup_ns /. 1e9 ])
      @ !setups;
    if seconds_since start < seconds then loop (i + 1)
  in
  loop 0;
  if trace then
    trace_extras w config inputs ~n ~scale
      ~rounds:(if seconds > 0. then 3 else 1)
      ~spans ~parent ~records:!records ~latencies:!latencies ~add ~median;
  Spans.stop root;
  Option.iter
    (fun dir ->
      if trace then
        Spans.write spans (Filename.concat dir (Printf.sprintf "trace-%s-seed%d.jsonl" w.W.name seed)))
    out;
  (* Each wall-clock metric is the median of its samples, scaled to the
     reference machine speed by the probe (see calibrate.ml). *)
  let slowdown = Stats.median !probes /. Calibrate.reference_ns in
  Printf.eprintf "%s: machine speed %.4f of the reference\n%!" w.W.name (1. /. slowdown);
  let value = function
    | "sim_updates_per_s" -> median "sim_updates_per_s" *. slowdown
    | "setup_s" -> Stats.median !setups /. slowdown
    | "peak_heap_mb" -> Option.get !peak_heap_mb
    | name -> median name
  in
  let measured name =
    List.mem name [ "setup_s"; "peak_heap_mb" ] || Hashtbl.mem samples name
  in
  let names =
    if trace then List.map fst (Metric.per_layer ())
    else List.map (fun m -> m.Metric.name) (Metric.end_to_end ())
  in
  {
    workload = w.W.name;
    attempted = !attempted;
    failed = !failed;
    metrics = List.map (fun name -> (name, if measured name then value name else 0.)) names;
    unmeasured = List.filter (fun name -> not (measured name)) names;
  }

let result_line o =
  let metrics =
    List.map
      (fun (name, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v (Metric.unit_of name))
      o.metrics
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.attempted o.failed (String.concat ", " metrics)
