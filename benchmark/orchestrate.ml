(* The full benchmark: every run in a fresh child process, one at a time,
   each measuring for two seconds. A discarded warm-up run comes first,
   then [rounds] rounds that visit every workload in an order rotated by
   one each round, so that drift over the whole set hits every workload
   evenly. One traced run per workload follows for the per-layer metrics.
   With two sets the whole procedure repeats and the two sets' medians are
   compared against each metric's bound. *)

module Json = Avdb_obs.Json

let rounds = 7

let read_lines ic =
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  go []

(* The metrics of a child's result line, if it reports a correct run. *)
let parse_result line =
  let value m =
    match Json.member "value" m with
    | Some (Json.Int i) -> Some (float_of_int i)
    | Some (Json.Float f) -> Some f
    | _ -> None
  in
  match Json.of_string line with
  | Ok v -> (
      match (Json.member "correct" v, Json.member "metrics" v) with
      | Some (Json.Bool true), Some (Json.Obj fields) ->
          Some (List.filter_map (fun (name, m) -> Option.map (fun x -> (name, x)) (value m)) fields)
      | _ -> None)
  | Error _ -> None

exception Child_failed of string

(* Runs one child to completion and returns the metrics it reported. *)
let child ~exe ~out ~seed ~trace workload =
  let args =
    [|
      exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "2"; "--trace";
      (if trace then "1" else "0"); "--out"; out;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines = read_lines ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last = match List.rev lines with l :: _ -> l | [] -> "" in
  match (status, parse_result last) with
  | Unix.WEXITED 0, Some r -> r
  | _ ->
      let reason =
        match List.find_opt (fun l -> String.length l > 5 && String.sub l 0 5 = "FAIL ") lines with
        | Some l -> l
        | None -> Printf.sprintf "FAIL %s child exited without a correct result" workload
      in
      raise (Child_failed reason)

type set = {
  e2e : (string * string, float list) Hashtbl.t;  (** (workload, metric) -> values *)
  layers : (string * string, float) Hashtbl.t;
}

let names = List.map (fun w -> w.Workloads.name) Workloads.all

let run_set ~exe ~out ~seed ~label =
  let set = { e2e = Hashtbl.create 64; layers = Hashtbl.create 256 } in
  let progress fmt = Printf.ksprintf (fun s -> Printf.eprintf "[%s] %s\n%!" label s) fmt in
  progress "warm-up (%s, discarded)" (List.hd names);
  ignore (child ~exe ~out ~seed ~trace:false (List.hd names));
  let n = List.length names in
  for round = 0 to rounds - 1 do
    for j = 0 to n - 1 do
      let workload = List.nth names ((round + j) mod n) in
      progress "round %d/%d %s" (round + 1) rounds workload;
      let r = child ~exe ~out ~seed ~trace:false workload in
      List.iter
        (fun (metric, v) ->
          let key = (workload, metric) in
          Hashtbl.replace set.e2e key
            (v :: Option.value ~default:[] (Hashtbl.find_opt set.e2e key)))
        r
    done
  done;
  List.iter
    (fun workload ->
      progress "traced %s" workload;
      let r = child ~exe ~out ~seed ~trace:true workload in
      List.iter (fun (metric, v) -> Hashtbl.replace set.layers (workload, metric) v) r)
    names;
  set

let values set workload metric = Option.value ~default:[] (Hashtbl.find_opt set.e2e (workload, metric))

let print_set set =
  List.iter
    (fun workload ->
      Printf.printf "\n== %s ==\n" workload;
      List.iter
        (fun m ->
          match values set workload m.Metric.name with
          | [] -> ()
          | vs ->
              let q1, med, q3 = Stats.quartiles vs in
              Printf.printf "  %-24s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n" m.Metric.name med
                m.Metric.unit q1 q3 (List.length vs))
        (Metric.end_to_end ());
      List.iter
        (fun (name, unit) ->
          match Hashtbl.find_opt set.layers (workload, name) with
          | Some v -> Printf.printf "  %-36s %14.6g %s\n" name v unit
          | None -> ())
        (Metric.per_layer ()))
    names

(* Two sets agree when every wall-clock median moved by less than its
   bound and every exact metric is identical. *)
let compare_sets a b =
  let ok = ref true in
  Printf.printf "\n== agreement of two sets ==\n";
  List.iter
    (fun workload ->
      List.iter
        (fun m ->
          match (values a workload m.Metric.name, values b workload m.Metric.name) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let qa1, ma, qa3 = Stats.quartiles va and qb1, mb, qb3 = Stats.quartiles vb in
              let diff = if ma = 0. then 0. else (mb -. ma) /. ma in
              let exact = m.Metric.kind = Metric.Exact in
              let agree = if exact then ma = mb else Float.abs diff <= m.Metric.bound in
              if not agree then ok := false;
              Printf.printf "  %-16s %-24s %12.6g [%.6g, %.6g] | %12.6g [%.6g, %.6g] %+7.2f%% %s %s\n"
                workload m.Metric.name ma qa1 qa3 mb qb1 qb3 (100. *. diff)
                (if exact then "exact" else Printf.sprintf "bound %.0f%%" (100. *. m.Metric.bound))
                (if agree then "ok" else "DISAGREE"))
        (Metric.end_to_end ()))
    names;
  !ok

let json_of_set set =
  let workload_obj workload =
    let e2e =
      List.filter_map
        (fun m ->
          match values set workload m.Metric.name with
          | [] -> None
          | vs ->
              let q1, med, q3 = Stats.quartiles vs in
              Some
                ( m.Metric.name,
                  Json.Obj
                    [
                      ("unit", Json.Str m.Metric.unit);
                      ("median", Json.Float med);
                      ("q1", Json.Float q1);
                      ("q3", Json.Float q3);
                      ("values", Json.Arr (List.rev_map (fun v -> Json.Float v) vs));
                    ] ))
        (Metric.end_to_end ())
    in
    let layers =
      List.filter_map
        (fun (name, unit) ->
          Option.map
            (fun v -> (name, Json.Obj [ ("unit", Json.Str unit); ("value", Json.Float v) ]))
            (Hashtbl.find_opt set.layers (workload, name)))
        (Metric.per_layer ())
    in
    (workload, Json.Obj [ ("end_to_end", Json.Obj e2e); ("per_layer", Json.Obj layers) ])
  in
  Json.Obj (List.map workload_obj names)

let main ~out ~seed ~sets =
  let exe = Sys.executable_name in
  try
    let all = List.init sets (fun i -> run_set ~exe ~out ~seed ~label:(Printf.sprintf "set %d" (i + 1))) in
    List.iteri
      (fun i set ->
        Printf.printf "\n#### set %d: seed %d, %d rounds, medians and quartiles ####\n" (i + 1) seed rounds;
        print_set set)
      all;
    let agree = match all with [ a; b ] -> compare_sets a b | _ -> true in
    let path = Filename.concat out "results.json" in
    let oc = open_out path in
    output_string oc
      (Json.to_string
         (Json.Obj
            [
              ("seed", Json.Int seed);
              ("rounds", Json.Int rounds);
              ("all_runs_correct", Json.Bool true);
              ("sets", Json.Arr (List.map json_of_set all));
              ("sets_agree", Json.Bool agree);
            ]));
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nall runs correct; wrote %s and trace-*.jsonl\n" path;
    if not agree then begin
      print_endline "FAIL sets disagree beyond their bounds";
      exit 1
    end
  with Child_failed reason ->
    print_endline reason;
    exit 1
