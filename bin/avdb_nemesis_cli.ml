(* avdb-nemesis: sweep the randomized fault harness over a range of seeds
   and fail loudly (exit 1) on the first invariant violation, printing the
   failing seed and its shrunk minimal fault schedule so the run can be
   replayed exactly.

   Examples:
     dune exec bin/avdb_nemesis_cli.exe -- --seeds 100
     dune exec bin/avdb_nemesis_cli.exe -- --seed 42 --verbose
     dune exec bin/avdb_nemesis_cli.exe -- --seeds 100 --start 1000 --out nemesis-reports *)

open Cmdliner
open Avdb_chaos

let run_seed ~cfg ~verbose ~out seed =
  let report = Nemesis.check ~shrink:true { cfg with Nemesis.seed } in
  let failed = not (Nemesis.passed report) in
  if failed || verbose then Format.printf "%a@." Nemesis.pp_report report
  else Format.printf "seed %d: PASS@." seed;
  (match out with
  | Some dir when failed ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "nemesis-seed-%d.txt" seed) in
      let oc = open_out path in
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "%a@." Nemesis.pp_report report;
      close_out oc;
      Format.printf "report written to %s@." path
  | _ -> ());
  not failed

let run seeds start seed_opt sites regular non_regular epoch ops horizon_ms crashes
    partitions net_windows no_crash_base oracle spread hierarchy disk_faults domains
    mutations verbose out =
  let cfg =
    {
      (Nemesis.default ~seed:0) with
      Nemesis.n_sites = sites;
      n_regular = regular;
      n_non_regular = non_regular;
      n_epoch = epoch;
      n_ops = ops;
      horizon_ms;
      max_crashes = crashes;
      max_partitions = partitions;
      max_net_windows = net_windows;
      crash_base = not no_crash_base;
      oracle;
      spread;
      hierarchy;
      disk_faults;
      domains;
    }
  in
  if disk_faults && domains > 1 then
    `Error (true, "--disk-faults cannot be combined with --domains greater than 1")
  else if regular + non_regular + epoch = 0 then
    `Error (true, "--regular, --non-regular and --epoch are all 0: the catalogue is empty")
  else
    match Nemesis.validate cfg with
    | Error e -> `Error (true, "invalid configuration: " ^ e)
    | Ok () -> (
        Avdb_core.Mutation.reset ();
        List.iter Avdb_core.Mutation.enable mutations;
        if mutations <> [] then
          Printf.eprintf "warning: mutations enabled (%s) — failures are expected\n%!"
            (String.concat ", " (List.map Avdb_core.Mutation.name mutations));
        let seed_list =
          match seed_opt with
          | Some s -> [ s ]
          | None -> List.init seeds (fun i -> start + i)
        in
        let failures =
          List.filter (fun seed -> not (run_seed ~cfg ~verbose ~out seed)) seed_list
        in
        match failures with
        | [] ->
            Format.printf "all %d seeds passed@." (List.length seed_list);
            `Ok 0
        | fs ->
            Format.printf "FAILING SEEDS: %s@."
              (String.concat " " (List.map string_of_int fs));
            `Ok 1)

let seeds_arg =
  Arg.(
    value & opt Avdb_cli.non_negative_int 20
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")

let start_arg =
  Arg.(value & opt int 0 & info [ "start" ] ~docv:"S" ~doc:"First seed of the sweep.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Run exactly one seed (overrides --seeds/--start).")

let sites_arg =
  Arg.(
    value & opt Avdb_cli.positive_int 4
    & info [ "sites" ] ~doc:"Cluster size (site 0 is the base).")

let regular_arg =
  Arg.(
    value & opt Avdb_cli.non_negative_int 4
    & info [ "regular" ] ~doc:"Regular (Delay Update) products.")

let non_regular_arg =
  Arg.(
    value & opt Avdb_cli.non_negative_int 3
    & info [ "non-regular" ] ~doc:"Non-regular (Immediate Update) products.")

let epoch_arg =
  Arg.(
    value & opt Avdb_cli.non_negative_int 0
    & info [ "epoch" ] ~docv:"N"
        ~doc:
          "Epoch-class products (asynchronous epoch-quorum commit). Adds the epoch \
           invariants — identical sealed prefixes on every subscriber, zero unsealed \
           intents at quiescence — to every run. Default 0.")

let ops_arg =
  Arg.(
    value & opt Avdb_cli.non_negative_int 160
    & info [ "ops" ] ~doc:"Workload submissions per run.")

let horizon_arg =
  Arg.(
    value & opt Avdb_cli.non_negative_float 3000.
    & info [ "horizon-ms" ] ~doc:"Fault-phase length (sim ms).")

let crashes_arg =
  Arg.(
    value & opt Avdb_cli.non_negative_int 4
    & info [ "max-crashes" ] ~doc:"Max crash windows per run.")

let partitions_arg =
  Arg.(
    value & opt Avdb_cli.non_negative_int 2
    & info [ "max-partitions" ] ~doc:"Max partition windows per run.")

let net_windows_arg =
  Arg.(
    value & opt Avdb_cli.non_negative_int 3
    & info [ "max-net-windows" ] ~doc:"Max loss/duplication/reordering windows per run.")

let no_crash_base_arg =
  Arg.(value & flag & info [ "no-crash-base" ] ~doc:"Never crash site 0 (the base).")

let oracle_arg =
  Arg.(
    value & flag
    & info [ "oracle" ]
        ~doc:
          "Record a client-visible history (with injected replica reads) and add the \
           consistency oracle's verdict — linearizability, session guarantees, model-exact \
           convergence, AV ledger cross-checks — to the invariants.")

let spread_arg =
  Arg.(
    value
    & opt (some Avdb_cli.positive_int) None
    & info [ "spread" ] ~docv:"K"
        ~doc:
          "Run on a sharded topology: per-item hashed bases with partial replication at \
           $(docv) sites per item. Default: the paper's flat topology (site 0 bases \
           everything, full replication).")

let hierarchy_arg =
  Arg.(
    value
    & opt (some Avdb_cli.positive_int) None
    & info [ "hierarchy" ] ~docv:"F"
        ~doc:
          "With --spread: circulate AV requests up an $(docv)-ary tree over each item's \
           subscribers instead of flat peer selection.")

let disk_faults_arg =
  Arg.(
    value & flag
    & info [ "disk-faults" ]
        ~doc:
          "Attach storage faults (lost fsyncs, bit flips, misdirected block writes, lost \
           segments) to ~70% of generated crashes, damaging the victim's on-disk log files so \
           recovery exercises CRC damage classification, quarantine and repair from each \
           item's base site. Corruption may cost availability and repair traffic, never \
           consistency — the invariants (and the oracle, with --oracle) still apply.")

let domains_arg =
  Arg.(
    value & opt Avdb_cli.positive_int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run the system under test on $(docv) OCaml domains: site faults land on their \
           owning shards, network knobs are mirrored into every shard, and the oracle \
           (with --oracle) merges one history per shard. Deterministic per seed. Values \
           above 1 are incompatible with --disk-faults.")

let mutation_conv =
  let parse s =
    match Avdb_core.Mutation.of_name s with Ok m -> Ok m | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Avdb_core.Mutation.name m))

let mutate_arg =
  Arg.(
    value
    & opt (list mutation_conv) []
    & info [ "mutate" ] ~docv:"NAME,..."
        ~doc:
          "Enable test-only fault seeding (known-bad behaviors) before the sweep; used to \
           check that the oracle convicts them. See $(b,avdb-sim --mutate) for names.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the full report for passing seeds too.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Write a per-seed report file for every failing seed.")

let cmd =
  let doc = "randomized crash/partition/loss nemesis for the autonomous-consistency cluster" in
  Cmd.v
    (Cmd.info "avdb-nemesis" ~doc)
    Term.(
      ret
        (const run $ seeds_arg $ start_arg $ seed_arg $ sites_arg $ regular_arg
        $ non_regular_arg $ epoch_arg $ ops_arg $ horizon_arg $ crashes_arg $ partitions_arg
        $ net_windows_arg $ no_crash_base_arg $ oracle_arg $ spread_arg $ hierarchy_arg
        $ disk_faults_arg $ domains_arg $ mutate_arg $ verbose_arg $ out_arg))

let () = exit (Cmd.eval' cmd)
