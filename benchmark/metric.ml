(* Every metric the benchmark reports, with its unit and, for the
   end-to-end ones, the bound the two-set check holds them to. They are
   read from BENCHMARK.json at the repository root, the one place they are
   written down; the benchmark runs from the repository root. Each
   end-to-end metric is non-zero on every workload, so a relative bound is
   always defined. *)

module Json = Avdb_obs.Json

(* How a metric varies between two runs of the same seed: [Exact] values
   repeat byte-for-byte, [Wall] ones are wall-clock measurements. *)
type kind = Wall | Exact

let wall = [ "sim_updates_per_s"; "setup_s" ]

type e2e = { name : string; unit : string; bound : float; kind : kind }
type spec = { end_to_end : e2e list; per_layer : (string * string) list }

let path = "BENCHMARK.json"

let read () =
  let bad fmt = Printf.ksprintf (fun s -> failwith (path ^ ": " ^ s)) fmt in
  let doc =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> bad "%s" e
    | exception Sys_error e -> failwith e
  in
  let list key =
    match Json.member key doc with Some (Json.Arr l) -> l | _ -> bad "no %s list" key
  in
  let str key m = match Json.member key m with Some (Json.Str s) -> s | _ -> bad "an entry without a %s" key in
  let number key m =
    match Json.member key m with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> bad "an entry without a %s" key
  in
  let workloads = List.map (str "name") (list "workloads") in
  let expected = List.map (fun w -> w.Workloads.name) Workloads.all in
  if workloads <> expected then
    bad "workloads %s, but the benchmark defines %s" (String.concat ", " workloads)
      (String.concat ", " expected);
  {
    end_to_end =
      List.map
        (fun m ->
          let name = str "name" m in
          {
            name;
            unit = str "unit" m;
            bound = number "bound" m;
            kind = (if List.mem name wall then Wall else Exact);
          })
        (list "end_to_end");
    per_layer = List.map (fun m -> (str "name" m, str "unit" m)) (list "per_layer");
  }

let spec = lazy (read ())
let end_to_end () = (Lazy.force spec).end_to_end
let per_layer () = (Lazy.force spec).per_layer

let unit_of name =
  match List.find_opt (fun m -> m.name = name) (end_to_end ()) with
  | Some m -> m.unit
  | None -> List.assoc name (per_layer ())
