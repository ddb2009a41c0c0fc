(* Seeded randomized fault injection over a live cluster, with
   whole-system invariant checking and greedy schedule shrinking. See the
   interface for the invariant list; the design constraint throughout is
   determinism — [execute] must be a pure function of (config, schedule)
   so a failing seed replays exactly. *)

open Avdb_sim
open Avdb_core
open Avdb_av
open Avdb_workload

type fault =
  | Crash of { site : int; at_ms : float; for_ms : float }
  | Partition of { a : int; b : int; at_ms : float; for_ms : float }
  | Drop of { p : float; at_ms : float; for_ms : float }
  | Duplicate of { p : float; at_ms : float; for_ms : float }
  | Reorder of { p : float; at_ms : float; for_ms : float }
  | Disk_fault of {
      site : int;
      at_ms : float;
      target : [ `Wal | `Txn ];
      spec : Avdb_store.Disk_fault.spec;
    }

type config = {
  seed : int;
  n_sites : int;
  n_regular : int;
  n_non_regular : int;
  n_epoch : int;
  n_ops : int;
  horizon_ms : float;
  max_crashes : int;
  max_partitions : int;
  max_net_windows : int;
  crash_base : bool;
  oracle : bool;
  spread : int option;
  hierarchy : int option;
  disk_faults : bool;
  domains : int;
}

let default ~seed =
  {
    seed;
    n_sites = 4;
    n_regular = 4;
    n_non_regular = 3;
    n_epoch = 0;
    n_ops = 160;
    horizon_ms = 3000.;
    max_crashes = 4;
    max_partitions = 2;
    max_net_windows = 3;
    crash_base = true;
    oracle = false;
    spread = None;
    hierarchy = None;
    disk_faults = false;
    domains = 1;
  }

(* --- schedule generation --- *)

let fault_window = function
  | Crash { at_ms; for_ms; _ }
  | Partition { at_ms; for_ms; _ }
  | Drop { at_ms; for_ms; _ }
  | Duplicate { at_ms; for_ms; _ }
  | Reorder { at_ms; for_ms; _ } ->
      (at_ms, at_ms +. for_ms)
  | Disk_fault { at_ms; _ } -> (at_ms, at_ms)

let fault_start f = fst (fault_window f)

(* Two faults conflict when letting their windows overlap would make the
   schedule ill-formed (a crash of an already-down site, a double cut of
   the same link, clobbered open/close events on a shared network knob). *)
let conflicts a b =
  match (a, b) with
  | Crash x, Crash y -> x.site = y.site
  | Partition x, Partition y ->
      (min x.a x.b, max x.a x.b) = (min y.a y.b, max y.a y.b)
  | Drop _, Drop _ | Duplicate _, Duplicate _ | Reorder _, Reorder _ -> true
  | Disk_fault x, Disk_fault y -> x.site = y.site && x.target = y.target
  | _ -> false

let overlaps a b =
  let s1, e1 = fault_window a and s2, e2 = fault_window b in
  s1 < e2 && s2 < e1

let generate cfg =
  let rng = Rng.create cfg.seed in
  (* Windows live in [5%, 70%] of the horizon and are short enough that
     every one closes well before the final heal-the-world phase. Loss
     probability is capped at 0.15 so that a 10-attempt retransmission
     policy makes a permanently lost grant reply (the one legitimate
     conservation leak besides a crashed requester) vanishingly rare. *)
  let window lo_dur hi_dur =
    let at = Rng.float_in rng (0.05 *. cfg.horizon_ms) (0.7 *. cfg.horizon_ms) in
    (at, Rng.float_in rng lo_dur hi_dur)
  in
  let candidates = ref [] in
  let push f = candidates := f :: !candidates in
  if cfg.max_crashes > 0 then
    for _ = 1 to Rng.int_in rng 1 cfg.max_crashes do
      let lo = if cfg.crash_base then 0 else 1 in
      if cfg.n_sites > lo then begin
        let site = Rng.int_in rng lo (cfg.n_sites - 1) in
        let at_ms, for_ms = window 150. 400. in
        push (Crash { site; at_ms; for_ms });
        (* Disk faults ride along with crashes: arm the victim's faultable
           disk 1 ms before it goes down, so the crash serializes its log files
           through the damaged medium. Drawn even when disabled so a seed's
           crash/partition schedule is identical with and without
           [disk_faults]. *)
        let armed = Rng.bernoulli rng 0.7 in
        let target = if Rng.bool rng then `Wal else `Txn in
        let spec =
          match Rng.int rng 5 with
          | 0 -> Avdb_store.Disk_fault.Torn_tail
          | 1 -> Avdb_store.Disk_fault.Lost_fsync { frames = Rng.int_in rng 1 8 }
          | 2 -> Avdb_store.Disk_fault.Bit_flip { pos = Rng.float rng 1. }
          | 3 -> Avdb_store.Disk_fault.Misdirect { pos = Rng.float rng 1. }
          | _ -> Avdb_store.Disk_fault.Lost_segment { pos = Rng.float rng 1. }
        in
        if cfg.disk_faults && armed then
          push (Disk_fault { site; at_ms = at_ms -. 1.; target; spec })
      end
    done;
  if cfg.max_partitions > 0 && cfg.n_sites >= 2 then
    for _ = 1 to Rng.int_in rng 0 cfg.max_partitions do
      let a = Rng.int rng cfg.n_sites and b = Rng.int rng cfg.n_sites in
      if a <> b then begin
        let at_ms, for_ms = window 150. 500. in
        push (Partition { a; b; at_ms; for_ms })
      end
    done;
  if cfg.max_net_windows > 0 then
    for _ = 1 to Rng.int_in rng 1 cfg.max_net_windows do
      let at_ms, for_ms = window 100. 300. in
      match Rng.int rng 3 with
      | 0 -> push (Drop { p = Rng.float_in rng 0.05 0.15; at_ms; for_ms })
      | 1 -> push (Duplicate { p = Rng.float_in rng 0.1 0.4; at_ms; for_ms })
      | _ -> push (Reorder { p = Rng.float_in rng 0.1 0.4; at_ms; for_ms })
    done;
  let sorted =
    List.sort (fun x y -> compare (fault_start x) (fault_start y)) !candidates
  in
  List.rev
    (List.fold_left
       (fun kept f ->
         if List.exists (fun g -> conflicts f g && overlaps f g) kept then kept
         else f :: kept)
       [] sorted)

(* --- execution --- *)

type stats = {
  applied : int;
  rejected : int;
  crashes : int;
  partitions : int;
  net_windows : int;
  disk_faults : int;
  in_doubt_recovered : int;
  termination_queries : int;
  decision_rebroadcasts : int;
  leaked_av : int;
  messages_dropped : int;
  oracle_entries : int;
  epochs_sealed : int;
  epoch_takeovers : int;
  checksum_failures : int;
  segments_quarantined : int;
  repairs : int;
  repair_bytes : int;
  still_quarantined : int;
}

type outcome = {
  violations : string list;
  stats : stats;
  history : Avdb_check.History.t option;
}

let mk_config cfg =
  let products =
    Product.mixed ~n_regular:cfg.n_regular ~n_non_regular:cfg.n_non_regular
      ~n_epoch:cfg.n_epoch ~initial_amount:100
  in
  let topology =
    match cfg.spread with
    | None -> Topology.flat
    | Some spread -> Topology.sharded ~spread ?hierarchy_fanout:cfg.hierarchy ()
  in
  {
    Config.default with
    Config.n_sites = cfg.n_sites;
    products;
    topology;
    rpc_timeout = Time.of_ms 20.;
    rpc_retry =
      {
        Avdb_net.Rpc.max_attempts = 10;
        base_backoff = Time.of_ms 5.;
        backoff_multiplier = 2.;
        jitter = 0.3;
      };
    sync_interval = Some (Time.of_ms 25.);
    (* Nemesis attaches no exporter; run the tracer disabled so long
       seed sweeps pay nothing for spans. *)
    tracing = false;
    domains = cfg.domains;
    seed = cfg.seed;
  }

let validate cfg = Config.validate (mk_config cfg)

let execute cfg schedule =
  if cfg.domains > 1 && cfg.disk_faults then
    invalid_arg "Nemesis.execute: disk_faults not supported with domains > 1";
  let config = mk_config cfg in
  let pc = Pcluster.create config in
  let site = Pcluster.site pc in
  let topology = Pcluster.topology pc in
  let engines = Pcluster.engines pc in
  let ms = Time.of_ms in
  let at_site i at_ms f = Pcluster.schedule_at_site pc ~site:i ~at:(ms at_ms) f in
  let violations = ref [] in
  let violate fmt =
    Format.kasprintf
      (fun s ->
        if List.length !violations < 32 && not (List.mem s !violations) then
          violations := s :: !violations)
      fmt
  in
  (* Oracle mode records every client-visible operation into a history and
     injects replica reads, so the end-of-run verdict can also judge
     linearizability, session guarantees and reachability — not just the
     aggregate invariants below. Off by default: the extra reads change the
     message traffic, hence the exact outcome, of a given seed. In parallel
     mode the recorder is one single-writer history per shard, merged at
     the end. *)
  let recorders =
    if not cfg.oracle then None
    else Some (Array.init (Pcluster.n_domains pc) (fun _ -> Avdb_check.History.create ()))
  in
  (* Faults enter the history beside the calls that inject them: the crash
     before it takes effect, the recovery once it has completed. *)
  let record_fault i kind =
    match recorders with
    | None -> ()
    | Some hs ->
        let shard = Pcluster.domain_of_site pc i in
        Avdb_check.History.record_fault hs.(shard) ~site:i ~at:(Engine.now engines.(shard)) kind
  in
  let crash i =
    if not (Site.is_down (site i)) then begin
      record_fault i Avdb_check.History.Crashed;
      Site.crash (site i)
    end
  and recover i =
    if Site.is_down (site i) then begin
      Site.recover (site i);
      record_fault i Avdb_check.History.Recovered
    end
  in
  (* Install the fault schedule as open/close event pairs: site faults on
     the owning shard, network knobs mirrored into every shard. *)
  List.iter
    (fun f ->
      match f with
      | Crash { site = i; at_ms; for_ms } ->
          at_site i at_ms (fun () -> crash i);
          at_site i (at_ms +. for_ms) (fun () -> recover i)
      | Partition { a; b; at_ms; for_ms } ->
          Pcluster.partition_at pc ~at:(ms at_ms) a b;
          Pcluster.heal_at pc ~at:(ms (at_ms +. for_ms)) a b
      | Drop { p; at_ms; for_ms } ->
          Pcluster.set_drop_probability_at pc ~at:(ms at_ms) p;
          Pcluster.set_drop_probability_at pc ~at:(ms (at_ms +. for_ms)) 0.
      | Duplicate { p; at_ms; for_ms } ->
          Pcluster.set_duplicate_probability_at pc ~at:(ms at_ms) p;
          Pcluster.set_duplicate_probability_at pc ~at:(ms (at_ms +. for_ms)) 0.
      | Reorder { p; at_ms; for_ms } ->
          Pcluster.set_reorder_probability_at pc ~at:(ms at_ms) p;
          Pcluster.set_reorder_probability_at pc ~at:(ms (at_ms +. for_ms)) 0.
      | Disk_fault { site = i; at_ms; target; spec } ->
          at_site i at_ms (fun () -> Site.arm_disk_fault (site i) ~target spec))
    schedule;
  (* The workload: the paper's SCM generator over the full mixed catalogue,
     so Delay Update (AV) and Immediate Update (2PC) both run under fire. *)
  let products = config.Config.products in
  let items =
    Array.of_list (List.map (fun p -> (p.Product.name, p.Product.initial_amount)) products)
  in
  let wl_spec =
    {
      Scm.n_sites = cfg.n_sites;
      items;
      maker_increase_pct = 0.2;
      retailer_decrease_pct = 0.1;
      item_skew = 0.;
      maker_weight = 1;
    }
  in
  let wl =
    match cfg.spread with
    | None -> Scm.create wl_spec ~seed:cfg.seed
    | Some _ ->
        (* partial replication: rotate each item over its own subscribers
           (base first) so no site updates an item outside its interest *)
        let subscribers item =
          let base = Topology.base_index topology ~item in
          Array.of_list
            (base :: List.filter (fun i -> i <> base) (Topology.subscribers topology ~item))
        in
        Scm.create_sharded wl_spec ~subscribers ~seed:cfg.seed
  in
  let fired = Array.make (max 1 cfg.n_ops) 0 in
  (* Per-shard counters: each op's continuation fires on the shard owning
     its submission site, so slot [shard] has a single writer. *)
  let applied_by = Array.make (Pcluster.n_domains pc) 0
  and rejected_by = Array.make (Pcluster.n_domains pc) 0 in
  let op_interval = 0.9 *. cfg.horizon_ms /. float_of_int (max 1 cfg.n_ops) in
  for i = 0 to cfg.n_ops - 1 do
    let s, item, delta = Scm.generator wl i in
    let shard = Pcluster.domain_of_site pc s in
    at_site s
      (float_of_int i *. op_interval)
      (fun () ->
        let k r =
          fired.(i) <- fired.(i) + 1;
          if Update.is_applied r then applied_by.(shard) <- applied_by.(shard) + 1
          else rejected_by.(shard) <- rejected_by.(shard) + 1
        in
        match recorders with
        | Some hs ->
            Avdb_check.History.submit_update hs.(shard)
              ~engine:engines.(shard) (site s) ~item ~delta k
        | None -> Site.submit_update (site s) ~item ~delta k)
  done;
  (match recorders with
  | None -> ()
  | Some hs ->
      (* Interleave reads through the fault phase: mostly local replica
         reads (session checks), some authoritative base reads
         (linearizability / base-prefix checks). Down sites are skipped —
         their in-memory image may hold an uncommitted in-flight write the
         client could never observe. *)
      let rrng = Rng.create (cfg.seed lxor 0x0ace5) in
      for _ = 1 to max 1 (cfg.n_ops / 4) do
        let at_ms = Rng.float_in rrng (0.05 *. cfg.horizon_ms) (0.95 *. cfg.horizon_ms) in
        let s = Rng.int rrng cfg.n_sites in
        let item, _ = items.(Rng.int rrng (Array.length items)) in
        let auth = Rng.int rrng 3 = 0 in
        let shard = Pcluster.domain_of_site pc s in
        let h = hs.(shard) and engine = engines.(shard) in
        at_site s at_ms (fun () ->
            if not (Site.is_down (site s)) then
              if auth then begin
                (* a quarantined base answers None by design (availability
                   lost, not staleness) — skip it, like a down site. The
                   base may live on another shard, but quarantine requires
                   disk faults, which are sequential-only: the guard's
                   cross-shard read is short-circuited in parallel mode. *)
                let base = Topology.base_index topology ~item in
                if not (cfg.disk_faults && Site.is_quarantined (site base) ~item) then
                  Avdb_check.History.read_authoritative h ~engine (site s) ~item
                    (fun _ -> ())
              end
              else if
                (* a local read at a non-subscriber answers None by design,
                   not staleness — route session checks to replica holders *)
                Topology.interested topology ~site:s ~item
                && not (cfg.disk_faults && Site.is_quarantined (site s) ~item)
              then ignore (Avdb_check.History.read_local h ~engine (site s) ~item))
      done);
  (* Horizon: heal the world, then drain to quiescence. Knobs and heals go
     through the mirrored installers; recovery runs on each owning shard. *)
  Pcluster.set_drop_probability_at pc ~at:(ms cfg.horizon_ms) 0.;
  Pcluster.set_duplicate_probability_at pc ~at:(ms cfg.horizon_ms) 0.;
  Pcluster.set_reorder_probability_at pc ~at:(ms cfg.horizon_ms) 0.;
  for a = 0 to cfg.n_sites - 1 do
    for b = a + 1 to cfg.n_sites - 1 do
      Pcluster.heal_at pc ~at:(ms cfg.horizon_ms) a b
    done
  done;
  for i = 0 to cfg.n_sites - 1 do
    at_site i cfg.horizon_ms (fun () -> recover i)
  done;
  (* Decision agreement is an any-instant invariant: probe it about every
     100 ms of the fault phase, clocked by the barrier (the one place
     cross-shard reads are legal), not just at quiescence. *)
  let next_probe = ref 50. in
  Pcluster.run pc ~on_round:(fun ~at ->
      let at_ms = Time.to_ms at in
      if at_ms >= !next_probe && !next_probe < cfg.horizon_ms then begin
        next_probe := at_ms +. 100.;
        match Pcluster.decision_agreement pc with
        | Ok () -> ()
        | Error e -> violate "mid-run decision agreement: %s" e
      end);
  let sites = Pcluster.sites pc in
  let item_names = List.map (fun p -> p.Product.name) products in
  (* A replica that stayed quarantined after a storage fault (e.g. its
     repair donor rotation never completed) is excluded from convergence:
     it serves no reads and blocks no commits, so its stale raw value is
     not client-visible — staying safely quarantined costs availability,
     never consistency. *)
  let healthy_amounts item =
    List.filter_map
      (fun i ->
        if Site.is_quarantined (site i) ~item then None
        else Site.amount_of (site i) ~item)
      (Topology.subscribers topology ~item)
  in
  let converged item =
    match healthy_amounts item with
    | first :: rest -> List.for_all (( = ) first) rest
    | [] -> false
  in
  let attempts = ref 0 in
  (* Epoch items additionally require every logged intent sealed: each
     flush pass re-broadcasts seals to laggards and pump-steps buffered
     intents, so the loop drains both kinds of backlog. *)
  while
    ((not (List.for_all converged item_names)) || Pcluster.unsealed_intent_total pc > 0)
    && !attempts < 40
  do
    incr attempts;
    Pcluster.flush_all_syncs pc
  done;
  (* --- the invariants --- *)
  Array.iteri
    (fun i n ->
      if i < cfg.n_ops then
        if n = 0 then violate "op %d never settled" i
        else if n > 1 then violate "op %d fired %d times (double-fired continuation)" i n)
    fired;
  (match Pcluster.decision_agreement pc with
  | Ok () -> ()
  | Error e -> violate "final decision agreement: %s" e);
  (* A protocol-log entry on a still-quarantined item is exempt: the
     orphan-resolution poll may have exhausted its budget, but the item's
     replica stays fenced off, so the doubt is contained. *)
  let in_doubt =
    Array.fold_left
      (fun acc s ->
        acc
        + List.length
            (List.filter
               (fun (e : Avdb_txn.Txn_log.entry) ->
                 e.Avdb_txn.Txn_log.outcome = None
                 && not (Site.is_quarantined s ~item:e.Avdb_txn.Txn_log.item))
               (Avdb_txn.Txn_log.entries (Site.txn_log s))))
      0 sites
  in
  if in_doubt > 0 then violate "%d transactions still in doubt at quiescence" in_doubt;
  (* Epoch-quorum commit: every subscriber must hold identical sealed
     prefixes, and no logged intent may remain unsealed at quiescence. *)
  (match Pcluster.sealed_epoch_agreement pc with
  | Ok () -> ()
  | Error e -> violate "sealed epoch agreement: %s" e);
  let unsealed = Pcluster.unsealed_intent_total pc in
  if unsealed > 0 then violate "%d epoch intents still unsealed at quiescence" unsealed;
  List.iter
    (fun item ->
      if not (converged item) then
        violate "replicas of %s disagree at quiescence: [%s]" item
          (String.concat ", " (List.map string_of_int (healthy_amounts item))))
    item_names;
  (* AV ledger: per item, volume must never be created; globally, the
     books must balance exactly once the measured grant leak (granted
     minus received — volume stranded by a crash or exhausted
     retransmission while a grant reply was in flight) is accounted. *)
  let per_item f item =
    Array.fold_left (fun acc s -> acc + f (Site.av_table s) ~item) 0 sites
  in
  let deficit =
    List.fold_left
      (fun acc item ->
        let live = per_item Av_table.total item
        and consumed = per_item Av_table.consumed item
        and minted = per_item Av_table.minted item
        and defined = per_item Av_table.defined_volume item in
        let d = defined + minted - consumed - live in
        if d < 0 then violate "AV volume created out of thin air on %s (%d units)" item (-d);
        acc + d)
      0 item_names
  in
  let sum_metric f =
    Array.fold_left (fun acc s -> acc + f (Site.metrics s)) 0 sites
  in
  let granted = sum_metric (fun m -> m.Update.Metrics.av_volume_granted)
  and received = sum_metric (fun m -> m.Update.Metrics.av_volume_received) in
  let leaked = granted - received in
  if leaked < 0 then
    violate "more AV received than granted (%d units conjured in flight)" (-leaked);
  if deficit <> leaked then
    violate "AV ledger imbalance: defined+minted-consumed-live = %d but measured grant leak = %d"
      deficit leaked;
  (* With no leak the stricter whole-system check applies verbatim. *)
  if leaked = 0 then begin
    match Pcluster.check_invariants pc with
    | Ok () -> ()
    | Error e -> violate "check_invariants: %s" e
  end;
  (* The consistency oracle's verdict over the recorded (merged) history. *)
  let oracle_entries = ref 0 in
  let history =
    Option.map
      (fun hs ->
        match Array.to_list hs with [ h ] -> h | hs -> Avdb_check.History.merge hs)
      recorders
  in
  (match history with
  | None -> ()
  | Some h ->
      let snapshot = Avdb_check.Checker.snapshot_of_cluster pc in
      let verdict = Avdb_check.Checker.check ~quiescent:true ~history:h snapshot in
      oracle_entries := verdict.Avdb_check.Checker.stats.Avdb_check.Checker.n_entries;
      List.iter
        (fun v ->
          violate "oracle: %s" (Format.asprintf "@[<h>%a@]" Avdb_check.Checker.pp_violation v))
        verdict.Avdb_check.Checker.violations);
  let count p = List.length (List.filter p schedule) in
  let stats =
    {
      applied = Array.fold_left ( + ) 0 applied_by;
      rejected = Array.fold_left ( + ) 0 rejected_by;
      crashes = count (function Crash _ -> true | _ -> false);
      partitions = count (function Partition _ -> true | _ -> false);
      net_windows =
        count (function Drop _ | Duplicate _ | Reorder _ -> true | _ -> false);
      disk_faults = count (function Disk_fault _ -> true | _ -> false);
      in_doubt_recovered = sum_metric (fun m -> m.Update.Metrics.in_doubt_recovered);
      termination_queries = sum_metric (fun m -> m.Update.Metrics.termination_queries);
      decision_rebroadcasts =
        sum_metric (fun m -> m.Update.Metrics.decision_rebroadcasts);
      leaked_av = max 0 leaked;
      messages_dropped =
        Array.fold_left
          (fun acc s -> acc + Avdb_net.Stats.total_dropped s)
          0 (Pcluster.net_stats pc);
      oracle_entries = !oracle_entries;
      epochs_sealed = sum_metric (fun m -> m.Update.Metrics.epochs_sealed);
      epoch_takeovers = sum_metric (fun m -> m.Update.Metrics.epoch_takeovers);
      checksum_failures = sum_metric (fun m -> m.Update.Metrics.checksum_failures);
      segments_quarantined =
        sum_metric (fun m -> m.Update.Metrics.segments_quarantined);
      repairs = sum_metric (fun m -> m.Update.Metrics.repairs);
      repair_bytes = sum_metric (fun m -> m.Update.Metrics.repair_bytes);
      still_quarantined =
        Array.fold_left
          (fun acc s -> acc + List.length (Site.quarantined_items s))
          0 sites;
    }
  in
  { violations = List.rev !violations; stats; history }

(* --- shrinking --- *)

type report = {
  config : config;
  schedule : fault list;
  outcome : outcome;
  minimal : fault list option;
}

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

(* Greedy delta-debugging over single faults: drop one at a time, keep the
   removal whenever the shrunk schedule still fails. The result is locally
   minimal — every remaining fault is necessary for the failure. *)
let shrink_schedule cfg schedule =
  let failing s = (execute cfg s).violations <> [] in
  let rec loop sched i =
    if i >= List.length sched then sched
    else
      let candidate = remove_nth i sched in
      if failing candidate then loop candidate i else loop sched (i + 1)
  in
  loop schedule 0

let check ?(shrink = true) cfg =
  let schedule = generate cfg in
  let outcome = execute cfg schedule in
  let minimal =
    if outcome.violations = [] || not shrink then None
    else Some (shrink_schedule cfg schedule)
  in
  { config = cfg; schedule; outcome; minimal }

let passed r = r.outcome.violations = []

(* --- reporting --- *)

let pp_fault ppf = function
  | Crash { site; at_ms; for_ms } ->
      Format.fprintf ppf "crash site%d at %.0fms for %.0fms" site at_ms for_ms
  | Partition { a; b; at_ms; for_ms } ->
      Format.fprintf ppf "partition %d-%d at %.0fms for %.0fms" a b at_ms for_ms
  | Drop { p; at_ms; for_ms } ->
      Format.fprintf ppf "drop p=%.2f at %.0fms for %.0fms" p at_ms for_ms
  | Duplicate { p; at_ms; for_ms } ->
      Format.fprintf ppf "duplicate p=%.2f at %.0fms for %.0fms" p at_ms for_ms
  | Reorder { p; at_ms; for_ms } ->
      Format.fprintf ppf "reorder p=%.2f at %.0fms for %.0fms" p at_ms for_ms
  | Disk_fault { site; at_ms; target; spec } ->
      Format.fprintf ppf "disk-fault site%d %s at %.0fms: %a" site
        (match target with `Wal -> "wal" | `Txn -> "txn-log")
        at_ms Avdb_store.Disk_fault.pp spec

let pp_schedule ppf = function
  | [] -> Format.pp_print_string ppf "(no faults)"
  | faults ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_fault ppf faults

let pp_report ppf r =
  let s = r.outcome.stats in
  Format.fprintf ppf "@[<v>nemesis seed %d: %s@," r.config.seed
    (if passed r then "PASS" else "FAIL");
  Format.fprintf ppf
    "  ops: %d applied, %d rejected; faults: %d crashes, %d partitions, %d net \
     windows; %d msgs dropped@,"
    s.applied s.rejected s.crashes s.partitions s.net_windows s.messages_dropped;
  Format.fprintf ppf
    "  recovery: %d in-doubt re-installed, %d termination queries, %d decision \
     rebroadcasts, %d AV leaked@,"
    s.in_doubt_recovered s.termination_queries s.decision_rebroadcasts s.leaked_av;
  if s.disk_faults > 0 then
    Format.fprintf ppf
      "  storage: %d disk faults, %d checksum failures, %d segments quarantined, %d \
       repairs (%d bytes fetched), %d items still quarantined@,"
      s.disk_faults s.checksum_failures s.segments_quarantined s.repairs s.repair_bytes
      s.still_quarantined;
  if s.oracle_entries > 0 then
    Format.fprintf ppf "  oracle: %d history entries checked@," s.oracle_entries;
  if s.epochs_sealed > 0 then
    Format.fprintf ppf "  epoch: %d epochs sealed, %d takeovers@," s.epochs_sealed
      s.epoch_takeovers;
  Format.fprintf ppf "  schedule:@,    @[<v>%a@]@," pp_schedule r.schedule;
  if r.outcome.violations <> [] then begin
    Format.fprintf ppf "  violations:@,";
    List.iter (fun v -> Format.fprintf ppf "    %s@," v) r.outcome.violations
  end;
  (match r.minimal with
  | None -> ()
  | Some m ->
      Format.fprintf ppf "  minimal failing schedule:@,    @[<v>%a@]@," pp_schedule m);
  Format.fprintf ppf "@]"
