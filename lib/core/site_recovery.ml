(* Crashes and corruption-aware recovery: the crash itself, storage-damage
   accounting, exact row rebuild, quarantine and remote repair, and
   [recover], which resets each protocol module's per-incarnation state
   and restarts it. Owns the fault sinks, the quarantine set and the
   amnesia flag. *)

open Avdb_sim
open Avdb_net
open Avdb_store
open Avdb_txn
open Site_ctx

let arm_disk_fault t ~target spec =
  Fault_sink.arm (match target with `Wal -> t.wal_sink | `Txn -> t.txn_sink) spec

(* Log records per on-disk segment: a smaller segment bounds the blast
   radius of a corrupt or lost one at the cost of more header overhead. *)
let segment_frames = 64

let crash t =
  (* Capture what the disk held at the instant of death, with any armed
     faults applied. Guarded on [armed]: serialising the log files costs real
     work and a fault-free crash must stay free. *)
  if Fault_sink.armed t.wal_sink then
    Fault_sink.crash t.wal_sink ~segment_frames ~text:(Wal.to_string (Database.wal t.db));
  if Fault_sink.armed t.txn_sink then
    Fault_sink.crash t.txn_sink ~segment_frames ~text:(Txn_log.to_string t.txn_log);
  if tracing t then
    span_instant t ~status:Avdb_obs.Span.Warn ~category:"fault" "fault.crash"
      ~fields:[ ("epoch", string_of_int t.epoch) ];
  (* Bumping the epoch fences every closure created so far: timers and RPC
     continuations belonging to the dead incarnation become no-ops. *)
  t.epoch <- t.epoch + 1;
  Network.set_down (network t) t.addr true;
  (* Fail client operations caught in flight: their fenced continuations
     will never fire, and the colocated client sees the crash directly. *)
  let pending =
    Hashtbl.fold (fun op finish acc -> (op, finish) :: acc) t.inflight []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Hashtbl.reset t.inflight;
  List.iter (fun (_, finish) -> finish (Update.Rejected Update.Unreachable)) pending

(* [unreadable]: the surviving prefix failed to re-parse, so the whole
   log is dropped. A recovered prefix re-parses by construction; only a
   CRC collision hiding damage can get there. *)
let note_storage_damage t ~label ?unreadable (r : Segmented.report) =
  t.metrics.Update.Metrics.checksum_failures <-
    t.metrics.Update.Metrics.checksum_failures + Segmented.checksum_failures r;
  t.metrics.Update.Metrics.segments_quarantined <-
    t.metrics.Update.Metrics.segments_quarantined
    + List.length
        (List.filter
           (function
             | Segmented.Corrupt _ | Segmented.Missing_segment _ -> true
             | Segmented.Torn_tail -> false)
           r.Segmented.damage);
  if tracing t then
    span_instant t ~status:Avdb_obs.Span.Warn ~category:"storage" "storage.damage"
      ~fields:
        (("log", label)
        :: ("lost_frames", string_of_int r.Segmented.lost_frames)
        ::
        (match unreadable with
        | Some c -> [ ("unreadable", Format.asprintf "%a" Corruption.pp c) ]
        | None -> []))

(* The interest set's products, in catalogue order. *)
let iter_interest t f =
  Array.iter
    (fun p -> f t.shared.catalogue.(p))
    (Topology.interest (topology t) ~site:(site_index t))

(* Σ deltas of the epoch item's seals 1..[max_contiguous_seal]: what the
   applied prefix added to the row when the log has no snapshot floor. *)
let sealed_total t ~item =
  let total = ref 0 in
  for epoch = 1 to Txn_log.max_contiguous_seal t.txn_log ~item do
    List.iter
      (fun (i : Txn_log.intent) -> total := !total + i.Txn_log.i_delta)
      (Option.value ~default:[] (Txn_log.epoch_seal t.txn_log ~item ~epoch))
  done;
  !total

(* Rebuild replica rows lost with WAL damage from metadata that lives on
   other media and is exact by construction:

   - a regular item's committed row is
       initial + own cumulative sync counter + Σ applied remote counters
     (each counter moves in the same atomic event as its commit);
   - an epoch item's committed row is
       initial + Σ deltas of seals 1..max_contiguous_seal
     (a seal record and its apply are one atomic event, and recovery
     re-derives the applied prefix from the same records) — but only
     without a snapshot floor: above one, the log lacks the seals the
     installed row folded in, so the item is quarantined and repaired
     from its base instead;
   - any other non-regular item's committed row is
       initial + Σ deltas of protocol-log entries with outcome Commit
     (the outcome record and the local apply are one atomic event).

   The non-regular rules trust the protocol log, so they hold only while
   it lost nothing; under amnesia those items are quarantined and
   repaired remotely instead. Rows whose WAL state survived recompute to
   their current value, so running this over the whole interest set is
   idempotent. Assumes autonomous mode: the centralized baseline's write
   path bypasses the sync counters, so its base has no local
   reconstruction story. *)
let rebuild_lost_rows t ~trust_txn_log =
  if Database.table_opt t.db stock_table = None then
    ignore (Database.create_table t.db ~name:stock_table stock_schema);
  let committed_by_item =
    lazy
      (let tbl = Hashtbl.create 16 in
       List.iter
         (fun (e : Txn_log.entry) ->
           if e.Txn_log.outcome = Some Two_phase.Commit then
             Hashtbl.replace tbl e.Txn_log.item
               (e.Txn_log.delta
               + Option.value ~default:0 (Hashtbl.find_opt tbl e.Txn_log.item)))
         (Txn_log.entries t.txn_log);
       tbl)
  in
  let txn = Database.begin_txn t.db in
  iter_interest t (fun product ->
      let item = product.Product.name in
      let initial = product.Product.initial_amount in
      let regular = Product.is_regular product in
      (* an untrusted item is quarantined and will be repaired remotely;
         any placeholder works, the surviving value least surprises *)
      let placeholder () = Option.value ~default:initial (amount_of t ~item) in
      let expect =
        if regular then
          initial
          + Delay_sync.cum (counter_of t ~item)
          + Delay_sync.applied_total (stamps_of t ~item)
        else if not trust_txn_log then placeholder ()
        else if Product.is_epoch product then
          if Txn_log.epoch_floor t.txn_log ~item = 0 then initial + sealed_total t ~item
          else begin
            Hashtbl.replace t.quarantined item ();
            placeholder ()
          end
        else
          initial
          + Option.value ~default:0 (Hashtbl.find_opt (Lazy.force committed_by_item) item)
      in
      let written =
        match amount_of t ~item with
        | Some v when v = expect -> Ok ()
        | Some _ ->
            Database.set_col txn ~table:stock_table ~key:item ~col:"amount" (Value.Int expect)
        | None ->
            Database.insert txn ~table:stock_table ~key:item
              [| Value.Int expect; Value.Bool regular |]
      in
      match written with Ok () -> () | Error e -> failwith ("Site.recover rebuild: " ^ e));
  Database.commit txn

(* Protocol-log data loss taints every item whose correctness depends on
   that log: the non-regular interest set. A lost in-doubt entry means a
   decided Commit could arrive that this site no longer knows how to
   apply, so the rows cannot be trusted even when the WAL survived. *)
let quarantine_non_regular t =
  iter_interest t (fun product ->
      if not (Product.is_regular product) then
        Hashtbl.replace t.quarantined product.Product.name ())

(* Remote repair: fetch a committed-state snapshot of each quarantined
   item from a donor — the item's base first, then the other subscribers
   in rotation — install it, then watch the donor's in-flight 2PC
   transactions on the item resolve (applying each commit exactly once)
   before lifting the quarantine. New 2PC on a quarantined item cannot
   commit meanwhile (this site votes Refuse), and every pre-crash
   prepare has landed before the first snapshot (repairs start after the
   longest 2PC timeout), so the snapshot plus its pending list is a
   complete account of the item. *)
let max_repair_attempts = 64

let finish_repair t ~item =
  if Hashtbl.mem t.quarantined item then begin
    Hashtbl.remove t.quarantined item;
    t.metrics.Update.Metrics.repairs <- t.metrics.Update.Metrics.repairs + 1;
    if tracing t then
      span_instant t ~category:"storage" "storage.repair" ~fields:[ ("item", item) ]
  end

(* The item stays quarantined; no span is open when a repair gives up. *)
let repair_gave_up t ~item reason =
  if tracing t then
    span_instant t ~status:Avdb_obs.Span.Warn ~category:"storage" "storage.repair_gave_up"
      ~fields:[ ("item", item); ("reason", reason) ]

let rec watch_pending t ~item ~txid ~coordinator ~donor ~delta ~via_donor ~attempt ~k =
  if attempt >= max_repair_attempts then repair_gave_up t ~item "pending_txn"
  else if (not (is_down t)) && Hashtbl.mem t.quarantined item then begin
    let again via_donor =
      after t ~delay:Protocol.repair_interval (fun () ->
          watch_pending t ~item ~txid ~coordinator ~donor ~delta ~via_donor
            ~attempt:(attempt + 1) ~k)
    in
    (* via the donor once the coordinator lost its record of the txid: the
       donor is a surviving cohort member and will eventually hold — or
       adjudicate — the outcome *)
    let who = if via_donor then `Fellow donor else `Coordinator coordinator in
    Site_immediate.ask_decision t ~txid who (function
      | Site_immediate.Outcome Two_phase.Commit ->
          ignore (commit_delta t (stored t ~item) ~delta);
          k ()
      | Site_immediate.Outcome Two_phase.Abort | Site_immediate.Abort_safe -> k ()
      | Site_immediate.Lost -> again true
      | Site_immediate.In_doubt | Site_immediate.Silent -> again via_donor)
  end

let rec repair_item t ~item ~attempt =
  if is_down t || not (Hashtbl.mem t.quarantined item) then ()
  else if attempt >= max_repair_attempts then repair_gave_up t ~item "attempts"
  else begin
    let donors =
      let b = base_addr_for t ~item in
      let peers = peers_for t (stored t ~item) in
      let others = List.filter (fun a -> not (Address.equal a b)) peers in
      if Address.equal b t.addr then others else b :: others
    in
    match donors with
    | [] -> repair_gave_up t ~item "no_donor" (* sole subscriber *)
    | _ ->
        let donor = List.nth donors (attempt mod List.length donors) in
        let retry () =
          after t ~delay:Protocol.repair_interval (fun () ->
              repair_item t ~item ~attempt:(attempt + 1))
        in
        let sp = span_start t ~category:"storage" "storage.repair_fetch" in
        span_field t sp "item" item;
        span_field t sp "donor" (Address.to_string donor);
        Rpc.call t.shared.rpc ~src:t.addr ~dst:donor
          ~timeout:(config t).Config.rpc_timeout ~span:sp
          (Protocol.Join_request { wanted = Some [ item ] })
          (fenced t (fun response ->
               match response with
               | Ok (Protocol.Join_snapshot { rows; sync_state = _; pending; epochs } as resp)
                 -> (
                   t.metrics.Update.Metrics.repair_bytes <-
                     t.metrics.Update.Metrics.repair_bytes
                     + Protocol.wire_size_response resp;
                   span_end t sp;
                   match rows with
                   | [ _ ] when Site_membership.install_snapshot t ~rows ~epochs ~repair:true
                     -> (
                       match
                         List.filter
                           (fun (_, _, pitem, _) -> String.equal pitem item)
                           pending
                       with
                       | [] -> finish_repair t ~item
                       | watches ->
                           let outstanding = ref (List.length watches) in
                           List.iter
                             (fun (txid, coordinator, _, delta) ->
                               watch_pending t ~item ~txid
                                 ~coordinator:(Address.of_int coordinator) ~donor ~delta
                                 ~via_donor:false ~attempt:0 ~k:(fun () ->
                                   decr outstanding;
                                   if !outstanding = 0 then finish_repair t ~item))
                             watches)
                   | _ -> retry ())
               | Ok _ | Error _ ->
                   (* a [Bad_request]: the donor's own copy is quarantined;
                      rotate *)
                   span_warn t sp;
                   span_end t sp;
                   retry ()))
  end

let schedule_repairs t =
  if Hashtbl.length t.quarantined > 0 && (config t).Config.mode = Config.Autonomous
  then begin
    (* Wait out the longest 2PC round first: prepares sent before the
       crash run without retries, so by then the donor holds every
       pre-crash transaction either in its committed row or in its
       pending list — nothing slips between snapshot and watches. *)
    let delay = Time.max Protocol.prepare_timeout Protocol.ack_timeout in
    Hashtbl.iter
      (fun item () -> after t ~delay (fun () -> repair_item t ~item ~attempt:0))
      t.quarantined
  end

(* Read a damaged log image back through the classifying parser: the
   surviving records, or an empty log when even they fail to re-parse. *)
let reread t ~label ~parse ~empty (report : Segmented.report) =
  let log, unreadable =
    match parse (String.concat "\n" report.Segmented.payloads) with
    | Ok log -> (log, None)
    | Error c -> (empty (), Some c)
  in
  note_storage_damage t ~label ?unreadable report;
  (log, unreadable <> None || Segmented.data_loss report)

let recover t =
  (* Restart: committed state only, from the write-ahead log — read back
     through the faultable disk when faults were armed. In-flight
     participant transactions, locks, holds and timers die with the
     process; bump the epoch again so even closures created while down
     (there should be none, but belt and braces) cannot fire. *)
  t.epoch <- t.epoch + 1;
  let wal_report = Fault_sink.take_recovery t.wal_sink in
  let txn_report = Fault_sink.take_recovery t.txn_sink in
  let wal, wal_loss =
    match wal_report with
    | None -> (Database.wal t.db, false)
    | Some report -> reread t ~label:"wal" ~parse:Wal.of_string ~empty:Wal.create report
  in
  t.db <- Database.recover ~name:(Database.name t.db) wal;
  (match txn_report with
  | None -> ()
  | Some report ->
      let log, loss =
        reread t ~label:"txn-log" ~parse:Txn_log.of_string ~empty:Txn_log.create report
      in
      t.txn_log <- log;
      if loss then begin
        (* Synced protocol records are gone: "no entry" stops implying
           "never happened", forever — later recoveries cannot un-lose
           them. Every non-regular interest item is suspect. *)
        t.amnesia <- true;
        quarantine_non_regular t
      end);
  if wal_loss then begin
    (* Under amnesia — even from an *earlier* incarnation — the protocol
       log no longer bounds the committed non-regular deltas, so a lost
       WAL row cannot be reconstructed locally: quarantine and repair
       remotely instead. Without amnesia the rebuild is exact, except for
       an epoch item above a snapshot floor, which it quarantines. *)
    if t.amnesia then quarantine_non_regular t;
    rebuild_lost_rows t ~trust_txn_log:(not t.amnesia)
  end;
  (* Per-incarnation protocol state, one reset per module. *)
  Site_immediate.reset t;
  Site_delay.reset t;
  Network.set_down (network t) t.addr false;
  (* Re-install in-doubt 2PC state from the durable protocol log — after
     the network is back up, so the replay can speak to the cohort. *)
  Site_immediate.replay_protocol_log t;
  (* Amnesia txid floor: surviving entries no longer bound every txid we
     ever issued, so reserve a fresh range per incarnation instead of
     risking reuse of a lost one. *)
  if t.amnesia then t.next_txn_seq <- max t.next_txn_seq (t.epoch * 1000);
  (* Epoch class: re-derive the applied prefix and re-buffer own unsealed
     intents from the durable log, then restart the pump. *)
  Site_epoch.rebuild t;
  Site_delay.schedule_sync_flush t;
  (* Quarantined items — fresh this recovery or left by an interrupted
     repair — go back under repair. *)
  schedule_repairs t;
  if tracing t then begin
    (* a recovery that leaves items quarantined is a warning *)
    let q = Hashtbl.length t.quarantined in
    span_instant t ~category:"fault" "fault.recover"
      ?status:(if q > 0 then Some Avdb_obs.Span.Warn else None)
      ~fields:
        (("epoch", string_of_int t.epoch)
        :: (if q > 0 then [ ("quarantined", string_of_int q) ] else []))
  end
