(* One repetition: a freshly created system driven through the workload's
   inputs by [Runner], drained until its replicas converge and put through
   the correctness gate; plus the submit wrapper that observes it and the
   metrics read back from it afterwards. *)

open Avdb_core
module W = Workloads
module Time = Avdb_sim.Time
module Engine = Avdb_sim.Engine

exception Gate of string

let fail fmt = Printf.ksprintf (fun s -> raise (Gate s)) fmt

(* How the wrapper reaches the system: directly, or through the oracle's
   recording wrappers. *)
type client = {
  submit : Site.t -> item:string -> delta:int -> (Update.result -> unit) -> unit;
  read_local : Site.t -> item:string -> int option;
  read_auth : Site.t -> item:string -> ((int option, Update.reason) result -> unit) -> unit;
}

let direct =
  {
    submit = Site.submit_update;
    read_local = Site.read_local;
    read_auth = Site.read_authoritative;
  }

(* Per-shard state of the submit wrapper; each shard's domain touches
   only its own. *)
type acc = {
  mutable submitted : int;
  mutable fired : int;
  mutable rejected : (string * int) list;
  latencies : (int, int) Hashtbl.t;  (** commit latency (virtual us) -> count *)
  timing : float array;  (** ns and minor words spent inside submit_update *)
  mutable samples : (int * int) list;  (** every 1000th submit_update call *)
  mutable retailer_submits : int;
  mutable local_reads : int;
  mutable stale_reads : int;
  mutable auth_reads : int;
  mutable auth_done : int;
  mutable failed_reads : int;
  auth_latencies : (int, int) Hashtbl.t;
}

let new_acc () =
  {
    submitted = 0;
    fired = 0;
    rejected = [];
    latencies = Hashtbl.create 64;
    timing = [| 0.; 0. |];
    samples = [];
    retailer_submits = 0;
    local_reads = 0;
    stale_reads = 0;
    auth_reads = 0;
    auth_done = 0;
    failed_reads = 0;
    auth_latencies = Hashtbl.create 16;
  }

let bump tbl key =
  match Hashtbl.find tbl key with
  | n -> Hashtbl.replace tbl key (n + 1)
  | exception Not_found -> Hashtbl.add tbl key 1

(* The read mix: a local read at every 8th retailer submission, compared
   with the base replica at the same instant, and an authoritative read at
   every 64th. Only a single-domain system is read, since there the base
   replica is safe to look at mid-run. *)
let read_mix system client a site ~item =
  a.retailer_submits <- a.retailer_submits + 1;
  if a.retailer_submits mod 8 = 0 then begin
    a.local_reads <- a.local_reads + 1;
    match client.read_local site ~item with
    | None -> a.failed_reads <- a.failed_reads + 1
    | Some v ->
        let base = Site.read_local (System.base_site_for system ~item) ~item in
        if base <> Some v then a.stale_reads <- a.stale_reads + 1
  end;
  if a.retailer_submits mod 64 = 0 then begin
    a.auth_reads <- a.auth_reads + 1;
    let engine = (System.engines system).(0) in
    let issued = Engine.now engine in
    client.read_auth site ~item (fun r ->
        a.auth_done <- a.auth_done + 1;
        match r with
        | Ok (Some _) -> bump a.auth_latencies (Time.to_us (Time.diff (Engine.now engine) issued))
        | Ok None | Error _ -> a.failed_reads <- a.failed_reads + 1)
  end

let wrap system client ~reads ~traced accs : System.submit =
 fun ~shard site ~item ~delta k ->
  let a = accs.(shard) in
  a.submitted <- a.submitted + 1;
  if reads && Site.role site = Site.Retailer then read_mix system client a site ~item;
  let on_result (r : Update.result) =
    a.fired <- a.fired + 1;
    (match r.Update.outcome with
    | Update.Applied _ -> if traced then bump a.latencies (Time.to_us r.Update.latency)
    | Update.Rejected _ -> a.rejected <- (item, delta) :: a.rejected);
    k r
  in
  if traced then begin
    let w0 = Gc.minor_words () in
    let t0 = Spans.now_ns () in
    client.submit site ~item ~delta on_result;
    let t1 = Spans.now_ns () in
    a.timing.(0) <- a.timing.(0) +. float_of_int (t1 - t0);
    a.timing.(1) <- a.timing.(1) +. (Gc.minor_words () -. w0);
    if a.submitted mod 1000 = 0 then a.samples <- (t0, t1) :: a.samples
  end
  else client.submit site ~item ~delta on_result

let sum accs f = Array.fold_left (fun acc a -> acc + f a) 0 accs

(* The correctness gate every repetition ends with. *)
let gate system inputs ~n accs =
  let submitted = sum accs (fun a -> a.submitted) and fired = sum accs (fun a -> a.fired) in
  if submitted <> n then fail "%d of %d updates submitted" submitted n;
  if fired <> submitted then fail "%d continuations fired for %d updates" fired submitted;
  let issued = sum accs (fun a -> a.auth_reads) and answered = sum accs (fun a -> a.auth_done) in
  if answered <> issued then fail "%d of %d authoritative reads answered" answered issued;
  (match System.gate system with Ok () -> () | Error e -> fail "%s" e);
  (* Every replica must hold the initial amount plus exactly the applied
     deltas. *)
  let expected = Array.copy inputs.W.initial in
  for k = 0 to n - 1 do
    let p = inputs.W.packed.{k} in
    expected.(W.item_of p) <- expected.(W.item_of p) + W.delta_of p
  done;
  let index = Hashtbl.create 64 in
  Array.iteri (fun i item -> Hashtbl.replace index item i) inputs.W.items;
  Array.iter
    (fun a ->
      List.iter
        (fun (item, delta) ->
          let i = Hashtbl.find index item in
          expected.(i) <- expected.(i) - delta)
        a.rejected)
    accs;
  Array.iteri
    (fun i item ->
      List.iter
        (fun v ->
          if v <> expected.(i) then fail "%s: a replica holds %d, expected %d" item v expected.(i))
        (System.replica_amounts system ~item))
    inputs.W.items

type rep = {
  system : System.t;
  accs : acc array;
  n : int;
  setup_ns : int;
  drive_ns : int;
  drain_ns : int;
  check_ns : int;
  minor_words : float;
  events : int;
  rounds : int;
  virtual_drive : Time.t;
  wal0 : int array;
  txn0 : int array;
}

let wal_of site = Avdb_store.Database.wal (Site.database site)

let minor_words_all_domains () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let rep (w : W.t) config inputs ~n ~traced ~spans ~parent ~client =
  Gc.compact ();
  let rep_span = Spans.start spans ~parent "rep" in
  let t0 = Spans.now_ns () in
  let system = System.create config in
  let t1 = Spans.now_ns () in
  ignore (Spans.add spans ~parent:rep_span.Spans.id "setup" ~start_ns:t0 ~stop_ns:t1);
  let sites = System.sites system in
  let wal0 = Array.map (fun s -> Avdb_store.Wal.length (wal_of s)) sites in
  let txn0 = Array.map (fun s -> Avdb_txn.Txn_log.length (Site.txn_log s)) sites in
  let accs = Array.init (System.domains system) (fun _ -> new_acc ()) in
  let reads = w.W.reads && System.domains system = 1 in
  let submit = wrap system (client system) ~reads ~traced accs in
  let nth k =
    let p = inputs.W.packed.{k} in
    (W.site_of p, inputs.W.items.(W.item_of p), W.delta_of p)
  in
  let events0 = System.events_executed system in
  let words0 = minor_words_all_domains () in
  let t2 = Spans.now_ns () in
  System.drive system ~nth ~n ~interval:w.W.interval ~submit;
  let t3 = Spans.now_ns () in
  let rounds = System.rounds system and virtual_drive = System.now system in
  System.flush_all_syncs system;
  let t4 = Spans.now_ns () in
  let minor_words = minor_words_all_domains () -. words0 in
  let events = System.events_executed system - events0 in
  let drive = Spans.add spans ~parent:rep_span.Spans.id "drive" ~start_ns:t2 ~stop_ns:t3 in
  Array.iter
    (fun a ->
      List.iter
        (fun (s, e) -> ignore (Spans.add spans ~parent:drive.Spans.id "submit" ~start_ns:s ~stop_ns:e))
        a.samples)
    accs;
  if traced then begin
    Spans.field drive "submit.count" (float_of_int (sum accs (fun a -> a.submitted)));
    Spans.field drive "submit.total_ns" (Array.fold_left (fun acc a -> acc +. a.timing.(0)) 0. accs)
  end;
  ignore (Spans.add spans ~parent:rep_span.Spans.id "drain" ~start_ns:t3 ~stop_ns:t4);
  let check = Spans.within spans ~parent:rep_span.Spans.id "check" (fun s -> gate system inputs ~n accs; s) in
  Spans.stop rep_span;
  {
    system;
    accs;
    n;
    setup_ns = t1 - t0;
    drive_ns = t3 - t2;
    drain_ns = t4 - t3;
    check_ns = Spans.duration check;
    minor_words;
    events;
    rounds;
    virtual_drive;
    wal0;
    txn0;
  }

let attempted r = r.n + sum r.accs (fun a -> a.local_reads + a.auth_reads)
let failed r = sum r.accs (fun a -> List.length a.rejected + a.failed_reads)
let per_update r x = float_of_int x /. float_of_int r.n
let seconds ns = float_of_int ns /. 1e9

let e2e_samples r =
  [
    ("sim_updates_per_s", float_of_int r.n /. seconds (r.drive_ns + r.drain_ns));
    ("minor_words_per_update", r.minor_words /. float_of_int r.n);
    ("msgs_per_update", per_update r (System.msgs_sent r.system));
    ("bytes_per_update", per_update r (System.bytes_sent r.system));
  ]

let merged_histogram tables =
  let all = Hashtbl.create 64 in
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun k c -> Hashtbl.replace all k (c + Option.value ~default:0 (Hashtbl.find_opt all k)))
        tbl)
    tables;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) all [] |> List.sort compare

let ms_of_us us = float_of_int us /. 1000.
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Exact per-layer counts read back through public accessors. The
   [first] repetition also pays for the costlier footprint probes. *)
let layer_counts r ~first =
  let sites = System.sites r.system in
  let total f = Array.fold_left (fun acc s -> acc + f (Site.metrics s)) 0 sites in
  let txn f = Array.fold_left (fun acc s -> acc + f (Site.txn_log s)) 0 sites in
  let commits = merged_histogram (Array.to_list (Array.map (fun a -> a.latencies) r.accs)) in
  let auth = merged_histogram (Array.to_list (Array.map (fun a -> a.auth_latencies) r.accs)) in
  let grant =
    Array.fold_left
      (fun acc s -> Avdb_metrics.Sketch.merge acc (Site.metrics s).Update.Metrics.grant_latency)
      (Avdb_metrics.Sketch.create ()) sites
  in
  let msgs = System.msgs_sent r.system in
  let net f = System.sum_net f r.system in
  let wal_records = ref 0 in
  Array.iteri
    (fun i s -> wal_records := !wal_records + Avdb_store.Wal.length (wal_of s) - r.wal0.(i))
    sites;
  let committed = txn Avdb_txn.Txn_log.committed and aborted = txn Avdb_txn.Txn_log.aborted in
  let submitted = float_of_int (sum r.accs (fun a -> a.submitted)) in
  let submit_ns = Array.fold_left (fun acc a -> acc +. a.timing.(0)) 0. r.accs in
  let submit_words = Array.fold_left (fun acc a -> acc +. a.timing.(1)) 0. r.accs in
  let drive_self = float_of_int r.drive_ns -. submit_ns in
  let counts =
    let open Update.Metrics in
    [
      ("sim.events_per_update", per_update r r.events);
      ("sim.drive_self_ns_per_update", drive_self /. float_of_int r.n);
      ("core.submit_ns", submit_ns /. submitted);
      ("core.submit_words", submit_words /. submitted);
      ("core.drain_s", seconds r.drain_ns);
      ("core.sync_batches_per_update", per_update r (total (fun x -> x.sync_batches_sent)));
      ("core.commit_p50_ms", ms_of_us (Stats.histogram_percentile commits 0.5));
      ("core.commit_p999_ms", ms_of_us (Stats.histogram_percentile commits 0.999));
      ("core.commit_samples", float_of_int (List.fold_left (fun acc (_, c) -> acc + c) 0 commits));
      ("core.failed_share", ratio (failed r) (attempted r));
      ( "core.stale_read_share",
        ratio (sum r.accs (fun a -> a.stale_reads)) (sum r.accs (fun a -> a.local_reads)) );
      ("core.read_auth_p999_ms", ms_of_us (Stats.histogram_percentile auth 0.999));
      ("av.shortage_share", per_update r (total (fun x -> x.av_shortages)));
      ("av.requests_per_update", per_update r (total (fun x -> x.av_requests_sent)));
      ( "av.useful_request_ratio",
        ratio (total (fun x -> x.applied_transfer)) (total (fun x -> x.av_requests_sent)) );
      ( "av.grant_latency_p99_ms",
        if Avdb_metrics.Sketch.count grant = 0 then 0.
        else Avdb_metrics.Sketch.percentile grant 99. );
      ("av.corr_per_update", per_update r (System.total_correspondences r.system));
      ("store.wal_records_per_update", per_update r !wal_records);
      ("net.retries_per_update", per_update r (net (fun s -> s.Avdb_net.Stats.retries)));
      ("net.dropped_per_update", per_update r (net (fun s -> s.Avdb_net.Stats.dropped)));
      ("net.bytes_per_msg", ratio (System.bytes_sent r.system) msgs);
      ( "txn.log_records_per_update",
        per_update r
          (txn Avdb_txn.Txn_log.length - Array.fold_left ( + ) 0 r.txn0) );
      ("txn.abort_share", ratio aborted (committed + aborted));
      ("txn.termination_queries_per_update", per_update r (total (fun x -> x.termination_queries)));
      ("txn.intents_per_seal", ratio (total (fun x -> x.applied_epoch)) (total (fun x -> x.epochs_sealed)));
      ("txn.epoch_resends_per_update", per_update r (total (fun x -> x.epoch_intents_resent)));
      ("txn.epoch_takeovers", float_of_int (total (fun x -> x.epoch_takeovers)));
      ("check.invariants_s", seconds r.check_ns);
      (* not reported: the Delay share of updates, for the reconciliation *)
      ("delay_updates_per_update", per_update r (total (fun x -> x.applied_local + x.applied_transfer)));
    ]
  in
  if not first then counts
  else
    let buf = Buffer.create 256 in
    let wal_bytes = ref 0 in
    Array.iteri
      (fun i s ->
        List.iteri
          (fun j record ->
            if j >= r.wal0.(i) then begin
              Buffer.clear buf;
              Avdb_store.Wal.encode_record_into buf record;
              wal_bytes := !wal_bytes + Buffer.length buf
            end)
          (Avdb_store.Wal.records (wal_of s)))
      sites;
    let live = List.fold_left (fun acc (_, w) -> Int.max acc w) 0 (System.live_words_per_site r.system) in
    counts
    @ [
        ("store.wal_bytes_per_update", per_update r !wal_bytes);
        ("core.live_words_per_site_max", float_of_int live);
      ]

(* The WAL records the repetition wrote at its busiest site, for the
   encode replay. *)
let written_records r =
  let sites = System.sites r.system in
  let best = ref 0 in
  Array.iteri
    (fun i s ->
      let grew s i = Avdb_store.Wal.length (wal_of s) - r.wal0.(i) in
      if grew s i > grew sites.(!best) !best then best := i)
    sites;
  let log = wal_of sites.(!best) in
  let from = Int.max r.wal0.(!best) (Avdb_store.Wal.length log - 1000) in
  List.filteri (fun j _ -> j >= from) (Avdb_store.Wal.records log)

(* The commit latencies the repetition observed, at most 1000 copies of
   each distinct value: the value mix for the sketch replay. *)
let commit_latencies_ms r =
  merged_histogram (Array.to_list (Array.map (fun a -> a.latencies) r.accs))
  |> List.concat_map (fun (us, c) -> List.init (Int.min c 1000) (fun _ -> ms_of_us us))
  |> Array.of_list
