open Avdb_sim
open Avdb_net
open Avdb_store
open Avdb_av
open Avdb_txn

type role = Maker | Retailer

type shared = {
  engine : Engine.t;
  rpc : (Protocol.request, Protocol.response, Protocol.notice) Rpc.t;
  config : Config.t;
  topology : Topology.t;
      (* per-item bases, interest sets and the AV hierarchy; one copy for
         the whole cluster *)
  mutable n_members : int;
      (* membership is dense (site i has address i), so one counter
         replaces the old address list — a join is O(1), not an O(N) list
         copy *)
  tracer : Avdb_obs.Tracer.t;
}

type participant_txn = {
  p_txn : Database.txn;
  p_coordinator : Address.t;
  p_cohort : Address.t list;  (* everyone prepared, coordinator excluded *)
  p_item : string;
  p_delta : int;
  p_span : Avdb_obs.Span.id;  (* open from prepare until the decision *)
  mutable p_queries : int;  (* termination-protocol attempts so far *)
}

type coord = {
  machine : Two_phase.Coordinator.t;
  finish : Update.outcome -> unit;
  mutable local_txn : Database.txn option;
  mutable local_finalized : bool;
}

(* Per-item epoch-quorum commit state. The durable truth lives in the
   protocol log (intent / promise / accept / seal / floor records); this
   is the in-memory working set a recovery rebuilds from it. *)
type epoch_item = {
  ei_item : string;
  mutable ei_subs : Address.t list;  (* all subscribers, self included *)
  mutable ei_subs_version : int;  (* topology version the memo is valid for *)
  mutable ei_applied : int;  (* highest contiguously applied (sealed) epoch *)
  ei_buffer : (int, Txn_log.intent) Hashtbl.t;
      (* unsealed intents known here — own writes plus forwarded ones;
         what the next seal this site proposes will contain *)
  ei_sealed : (int, unit) Hashtbl.t;  (* txids inside applied seals (dedup) *)
  ei_stash : (int, Txn_log.intent list) Hashtbl.t;
      (* seals received ahead of a gap, applied once the pull fills it *)
  ei_waiters : (int, Update.outcome -> unit) Hashtbl.t;
      (* own txid -> submitting client, woken when a seal lands locally *)
  ei_acked : (int, int) Hashtbl.t;
      (* subscriber -> applied epoch it acknowledged; commit re-broadcast
         targets only laggards *)
  mutable ei_attempts : int;
      (* pump ticks without progress on the open epoch; escalates the
         candidate rank (and with it the ballot) every few ticks *)
  mutable ei_pump : bool;  (* a pump tick is scheduled *)
  mutable ei_busy : bool;  (* a propose/collect round is in flight *)
  mutable ei_fence : int;
      (* acceptor fence after an amnesia repair: refuse promises and
         accepts at or below it — the lost acceptor state may cover them *)
}

type t = {
  shared : shared;
  addr : Address.t;
  role : role;
  base_addr : Address.t;
  mutable db : Database.t;
  av : Av_table.t;
  view : Peer_view.t;
  sel_state : Strategy.selection_state;
  rng : Rng.t;
  mutable locks : Lock_manager.t;
  participant : Two_phase.Participant.t;
  participant_txns : (int, participant_txn) Hashtbl.t;
  coordinators : (int, coord) Hashtbl.t;
  mutable txn_log : Txn_log.t;
  metrics : Update.Metrics.t;
  (* The disk beneath each durable log: armed faults are applied to the
     synced image at crash time, and the next recovery reads back through
     the damage-classifying parser instead of trusting the in-memory log.
     Costs nothing while no fault is armed. *)
  wal_sink : Fault_sink.t;
  txn_sink : Fault_sink.t;
  (* Items whose local replica can no longer be trusted after storage
     damage: they refuse prepares, reject updates and hide from reads
     until repaired from a donor (or forever, when none exists). Trusted
     in-memory metadata, like [sync]: survives crashes, so an
     interrupted repair resumes at the next recovery. *)
  quarantined : (string, unit) Hashtbl.t;
  (* Epoch-class items this site subscribes to, keyed by item. Built once
     at creation from the catalogue ∩ interest set; the table's presence
     check is the third branch of the checking function. *)
  epochs : (string, epoch_item) Hashtbl.t;
  (* Set (stickily) once the protocol log loses synced records: from then
     on "no log entry" no longer implies "never happened", so presumed
     abort is off the table and lost txids answer [No_record]. *)
  mutable amnesia : bool;
  (* Lazy propagation, sender and receiver: per-item cumulative counters
     with strictly increasing change stamps, peer acknowledgements and the
     per-origin applied stamps that make propagation loss-, duplicate- and
     reorder-proof. Survives crashes (persisted metadata, like the AV
     table). *)
  sync : Delay_sync.t;
  mutable last_sync_apply : Avdb_sim.Time.t option;
      (* sim-time of the last remotely-originated sync batch this replica
         committed; feeds the [sync.apply_age_ms] staleness gauge *)
  prefetch_in_flight : (string, unit) Hashtbl.t;
  (* [peers_for ~item] memo, stamped with the topology version so joins
     invalidate it without any broadcast. Only populated under partial
     replication: its size is bounded by the site's interest set. *)
  peer_cache : (string, int * Address.t list) Hashtbl.t;
  mutable history_seq : int;
  mutable sync_flush_scheduled : bool;
  mutable next_txn_seq : int;
  (* Incarnation epoch, bumped by both crash and recover: every closure the
     site hands to the engine or the RPC layer is fenced on the epoch it
     was created under, so a continuation scheduled before a crash can
     never mutate post-recovery state. *)
  mutable epoch : int;
  (* Client operations still awaiting their outcome. Fencing would leave
     them unanswered across a crash (their continuations die with the
     incarnation), so [crash] fails each one explicitly - the submitting
     client is colocated with the site and observes the failure. *)
  inflight : (int, Update.outcome -> unit) Hashtbl.t;
  mutable next_op_seq : int;
}

let stock_table = "stock"
let history_table = "history"

let addr t = t.addr
let role t = t.role
let base t = t.base_addr
let database t = t.db
let av_table t = t.av
let peer_view t = t.view
let metrics t = t.metrics
let txn_log t = t.txn_log

let is_quarantined t ~item = Hashtbl.mem t.quarantined item

let quarantined_items t =
  Hashtbl.fold (fun item () acc -> item :: acc) t.quarantined []
  |> List.sort String.compare

let is_amnesiac t = t.amnesia

let arm_disk_fault t ~target spec =
  match target with
  | `Wal -> Fault_sink.arm t.wal_sink spec
  | `Txn -> Fault_sink.arm t.txn_sink spec

let network t = Rpc.network t.shared.rpc
let engine t = t.shared.engine
let config t = t.shared.config
let now t = Engine.now (engine t)
let is_down t = Network.is_down (network t) t.addr
let site_index t = Address.to_int t.addr
let topology t = t.shared.topology

let peers t =
  List.filter_map
    (fun i -> if i = site_index t then None else Some (Address.of_int i))
    (List.init t.shared.n_members (fun i -> i))

(* --- per-item topology routing --- *)

let base_addr_for t ~item = Address.of_int (Topology.base_index (topology t) ~item)
let interested_in t ~item = Topology.interested (topology t) ~site:(site_index t) ~item

let peer_interested t peer ~item =
  Topology.interested (topology t) ~site:(Address.to_int peer) ~item

(* The item's subscribers minus this site: the AV-selection candidates,
   the Immediate Update cohort and the sync audience. Cached per item
   under partial replication (bounded by the interest set); computed
   directly under full replication, where caching every peer list would
   cost O(items × N) per site. *)
let peers_for t ~item =
  let topo = topology t in
  if Topology.is_full topo then peers t
  else begin
    let v = Topology.version topo in
    match Hashtbl.find_opt t.peer_cache item with
    | Some (v', l) when v' = v -> l
    | _ ->
        let l =
          List.filter_map
            (fun i -> if i = site_index t then None else Some (Address.of_int i))
            (Topology.subscribers topo ~item)
        in
        Hashtbl.replace t.peer_cache item (v, l);
        l
  end

(* Hierarchical AV circulation: the cold-cache fallback target is this
   site's parent in the item's subscriber tree, so requests climb toward
   the base instead of all N subscribers hammering it directly. *)
let av_fallback t ~item =
  Option.map Address.of_int (Topology.av_parent (topology t) ~site:(site_index t) ~item)

(* Causal spans, always attributed to this site at the current sim-time.
   Parents are either local enclosing spans or the server-side RPC span
   handed to request handlers (the caller's context across the wire). *)
let span_start t ?parent ~category name =
  Avdb_obs.Tracer.start t.shared.tracer ~at:(now t) ?parent
    ~site:(Address.to_int t.addr) ~category name

let span_field t sp key value = Avdb_obs.Tracer.set_field t.shared.tracer sp key value
let span_warn t sp = Avdb_obs.Tracer.warn t.shared.tracer sp
let span_end t sp = Avdb_obs.Tracer.finish t.shared.tracer ~at:(now t) sp

(* Hot paths test this before building span arguments (field strings,
   field lists), so a disabled tracer costs one load and branch. *)
let tracing t = Avdb_obs.Tracer.enabled t.shared.tracer

let span_field_int t sp key n =
  Avdb_obs.Tracer.set_field_int t.shared.tracer sp key n

let span_instant t ?parent ?status ?fields ~category name =
  ignore
    (Avdb_obs.Tracer.instant t.shared.tracer ~at:(now t) ?parent
       ~site:(Address.to_int t.addr) ?status ?fields ~category name)

(* Epoch fence: [fenced t k] is [k] while the site stays in its current
   incarnation and a no-op after any crash or recovery in between. *)
let fenced t k =
  let epoch = t.epoch in
  fun x -> if t.epoch = epoch then k x

let retry_policy t = (config t).Config.rpc_retry

let track_inflight t finish =
  let op = t.next_op_seq in
  t.next_op_seq <- t.next_op_seq + 1;
  Hashtbl.replace t.inflight op finish;
  fun outcome ->
    if Hashtbl.mem t.inflight op then begin
      Hashtbl.remove t.inflight op;
      finish outcome
    end

let amount_of t ~item =
  match Database.get_col t.db ~table:stock_table ~key:item ~col:"amount" with
  | Ok (Value.Int n) -> Some n
  | Ok _ | Error _ -> None

let item_known t ~item = Database.mem t.db ~table:stock_table ~key:item

(* Heap words reachable from the site's replica + protocol state: stock
   rows, AV ledger, peer view, sync sender/receiver tables and the peer
   cache. Deliberately excludes the WAL and audit history (they grow with
   applied-update count, not with the catalogue) — this is the quantity
   partial replication bounds by the interest set. *)
let live_words t =
  Obj.reachable_words
    (Obj.repr
       ( Database.table t.db stock_table,
         t.av,
         t.view,
         t.sync,
         t.peer_cache ))

(* Transaction ids for Immediate Update must be globally unique; reserve a
   large per-site range keyed by the address. *)
let fresh_txid t =
  let txid = (Address.to_int t.addr * 1_000_000) + t.next_txn_seq in
  t.next_txn_seq <- t.next_txn_seq + 1;
  txid

let pending_sync_deltas t = Delay_sync.unflushed t.sync

(* Consistency-lag probe inputs: how far this replica's view of [item]
   trails its origin, measured in sync-counter versions. The origin's
   outbound stamp minus what this site has applied from it is a monotone
   staleness distance — 0 exactly when every delta the origin ever
   queued has landed here. *)
let sync_version t ~item = Delay_sync.version t.sync ~item
let applied_sync_version t ~origin ~item = Delay_sync.applied_version t.sync ~origin ~item
let last_sync_apply t = t.last_sync_apply

let sync_av_info t counters =
  List.filter_map
    (fun (item, _, _) ->
      if Av_table.is_defined t.av ~item then Some (item, Av_table.available t.av ~item)
      else None)
    counters

(* Receiver side, shared by dedicated notices and payloads piggybacked on
   AV traffic: apply only counters stamped newer than the last one seen
   from that origin. Versions are strictly monotone per (origin, item), so
   losses, replays and reorderings all resolve to "apply the cumulative
   difference once, in stamp order". *)
let apply_sync_counters t ~src counters =
  if counters <> [] && not (is_down t) then begin
    let origin = Address.to_int src in
    match Delay_sync.fresh t.sync ~origin counters with
    | [] -> ()
    | fresh_deltas when Mutation.enabled Mutation.Lossy_sync ->
        (* Mutation: a lossy counter — advance the per-origin version
           bookkeeping as if the deltas were applied but drop the data.
           Later counters diff against the recorded cum, so the volume is
           permanently lost and replicas never converge. *)
        Delay_sync.record t.sync ~origin fresh_deltas
    | fresh_deltas ->
        let txn = Database.begin_txn t.db in
        let ok =
          List.for_all
            (fun (item, delta, _, _) ->
              Result.is_ok
                (Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta))
            fresh_deltas
        in
        if ok then begin
          Database.commit txn;
          Delay_sync.record t.sync ~origin fresh_deltas;
          t.last_sync_apply <- Some (now t);
          if tracing t then
            span_instant t ~category:"sync" "sync.apply"
              ~fields:
                [
                  ("from", Address.to_string src);
                  ("items", string_of_int (List.length fresh_deltas));
                ]
        end
        else Database.abort txn
  end

(* History keys must sort lexicographically in insertion order (the audit
   table iterates rows in key order). Zero-padded six-digit decimals do
   that for the first million rows; past that, each extra digit is
   announced by a leading '~' — which sorts after every digit — so longer
   keys follow all shorter ones (plain "%06d" would interleave them).
   Hand-rolled over [Printf.sprintf]: this sits on the applied-update hot
   path and the format-string interpreter was measurable there. *)
let history_key n =
  if n < 0 then invalid_arg "Site.history_key: negative";
  let digits =
    let rec loop d v = if v < 10 then d else loop (d + 1) (v / 10) in
    loop 1 n
  in
  let prefix = if digits > 6 then digits - 6 else 0 in
  let width = if digits > 6 then digits else 6 in
  let b = Bytes.make (prefix + width) '0' in
  Bytes.fill b 0 prefix '~';
  let rec fill i v =
    Bytes.set b i (Char.unsafe_chr (Char.code '0' + (v mod 10)));
    if v >= 10 then fill (i - 1) (v / 10)
  in
  fill (prefix + width - 1) n;
  Bytes.unsafe_to_string b

(* Audit trail: one row per locally-applied update when configured. Runs in
   its own committed transaction right after the stock change - the WAL
   orders them, so recovery keeps history and stock consistent. *)
let record_history t ~item ~delta ~path =
  if (config t).Config.record_history then begin
    let txn = Database.begin_txn t.db in
    let key = history_key t.history_seq in
    t.history_seq <- t.history_seq + 1;
    let row = [| Value.Str item; Value.Int delta; Value.Str path |] in
    match Database.insert txn ~table:history_table ~key row with
    | Ok () -> Database.commit txn
    | Error e ->
        Database.abort txn;
        failwith ("Site.record_history: " ^ e)
  end

(* Under partial replication a counter goes only to peers that subscribe
   to its item — they alone have a row to apply it to. *)
let sync_keep t =
  if Topology.is_full (topology t) then fun _ _ -> true
  else fun peer item -> peer_interested t peer ~item

let flush_sync ?(force = false) t =
  (* Each notified peer gets every counter it has not acknowledged (not
     just recent deltas): a receiver that missed earlier notices catches
     up from any later one. Counters a peer acknowledged — through an
     AV-grant reply or a reverse-direction notice's ack vector — are
     omitted, and a fully caught-up peer is skipped entirely. With
     [Config.sync_fanout] set, only that many peers are notified per
     flush, rotating round-robin; the cumulative counters make the
     rotation safe because whichever flush finally reaches a peer carries
     everything it missed. [force] broadcasts everything to everyone:
     convergence must not depend on acks or rotation position. *)
  if (not (is_down t)) && Delay_sync.count t.sync > 0 then begin
    (* The audience: every peer under full replication; under partial
       replication only the union of the counters' items' subscribers — a
       forced convergence flush included, so nothing here is O(N) per
       event unless the interest sets themselves are. *)
    let audience =
      if Topology.is_full (topology t) then peers t
      else Delay_sync.audience t.sync (topology t) ~self:(site_index t)
    in
    let targets =
      Delay_sync.start_flush t.sync ~force ~fanout:(config t).Config.sync_fanout audience
    in
    let ack = Delay_sync.ack t.sync in
    let sent = ref false in
    Delay_sync.payloads t.sync ~force ~keep:(sync_keep t) targets (fun peer counters ->
        sent := true;
        Rpc.notify t.shared.rpc ~src:t.addr ~dst:peer
          (Protocol.Sync_counters { counters; av_info = sync_av_info t counters; ack }));
    if !sent then begin
      t.metrics.Update.Metrics.sync_batches_sent <-
        t.metrics.Update.Metrics.sync_batches_sent + 1;
      if tracing t then
        span_instant t ~category:"sync" "sync.flush"
          ~fields:[ ("items", string_of_int (Delay_sync.count t.sync)) ]
    end
  end

(* Apply a committed local delta to the replicated stock value and queue it
   for lazy propagation. Only called after AV accounting has authorised the
   delta, so a failure here is a bug, not an input error. *)
let rec apply_local_delta t ~item ~delta =
  match Database.apply_int t.db ~table:stock_table ~key:item ~col:"amount" delta with
  | Ok _new_amount ->
      record_history t ~item ~delta ~path:"delay";
      Delay_sync.queue t.sync ~item ~delta;
      schedule_sync_flush t
  | Error e -> failwith (Printf.sprintf "Site.apply_local_delta %s: %s" item e)

(* Lazy propagation is debounced rather than a free-running timer: the
   first delta after a quiet period arms one flush event [sync_interval]
   later. A drained event queue therefore means true quiescence. *)
and schedule_sync_flush t =
  match (config t).Config.sync_interval with
  | None -> ()
  | Some interval ->
      if (not t.sync_flush_scheduled) && Delay_sync.owes_flush t.sync then begin
        t.sync_flush_scheduled <- true;
        ignore
          (Engine.schedule (engine t) ~delay:interval
             (fenced t (fun () ->
                  t.sync_flush_scheduled <- false;
                  flush_sync t;
                  (* Keep the timer alive while a fanout rotation still owes
                     peers their notice. *)
                  schedule_sync_flush t)))
      end

(* --- request handling (the accelerator's server side) --- *)

(* Piggybacks are free on an unmetered network but spend the link's
   bandwidth on a metered one, where inflating an RPC can push it past its
   own timeout. Budget: roughly a tenth of the bytes the link moves within
   one RPC timeout, expressed as an entry count (an entry is an item name
   plus an int or two). *)
let piggyback_entry_budget t =
  match (config t).Config.bandwidth_bytes_per_sec with
  | None -> max_int
  | Some b ->
      int_of_float (Time.to_sec (config t).Config.rpc_timeout *. float_of_int b)
      / (10 * 24)

let rec list_take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: list_take (n - 1) rest

(* The donor's available AV across items, piggybacked on grants so one
   reply warms the requester's whole selection cache. Zero levels are
   included: learning a peer ran dry is exactly what steers selection
   away from it. *)
let av_levels_snapshot t = list_take
    (piggyback_entry_budget t)
    (List.map (fun (item, available, _) -> (item, available)) (Av_table.snapshot t.av))

(* Sync counters to piggyback on an AV request or grant towards [peer],
   paired with the sequence number the payload covers (0 when nothing may
   be concluded from it). All-or-nothing: a truncated payload must not be
   sent, because the requester advances its conveyed-tracking on the
   reply assuming the whole backlog went through. *)
let sync_piggyback_for t peer =
  let payload = Delay_sync.payload t.sync ~keep:(sync_keep t peer) peer in
  if List.length payload > piggyback_entry_budget t then ([], 0)
  else (payload, Delay_sync.seq t.sync)

let handle_av_request t ~src ~span ~item ~amount ~requester_available ~sync ~reply =
  Peer_view.observe t.view ~site:src ~item ~volume:requester_available ~at:(now t);
  apply_sync_counters t ~src sync;
  let available = Av_table.available t.av ~item in
  let granting = (config t).Config.strategy.Strategy.granting in
  let granted = Strategy.Granting.amount granting ~available ~requested:amount in
  let granted =
    if granted = 0 then 0
    else
      match Av_table.withdraw t.av ~item granted with
      | Ok () -> granted
      | Error _ -> 0
  in
  t.metrics.Update.Metrics.av_volume_granted <-
    t.metrics.Update.Metrics.av_volume_granted + granted;
  if tracing t then
    span_instant t ?parent:span ~category:"av" "av.grant"
      ~fields:
        [
          ("item", item);
          ("granted", string_of_int granted);
          ("to", Address.to_string src);
        ];
  reply
    (Protocol.Av_grant
       {
         granted;
         donor_available = Av_table.available t.av ~item;
         av_levels = av_levels_snapshot t;
         (* Unacknowledged piggyback: the requester's version checks make
            a replayed reply harmless, and its conveyed-tracking is never
            advanced by it. *)
         sync = fst (sync_piggyback_for t src);
       })

let handle_central_update t ~item ~delta ~reply =
  if not (Address.equal t.addr (base_addr_for t ~item)) then
    reply (Protocol.Bad_request "central update at non-base site")
  else
    match amount_of t ~item with
    | None ->
        reply
          (Protocol.Central_ack { status = Protocol.Central_unknown_item; new_amount = 0 })
    | Some current ->
        if current + delta < 0 then
          reply
            (Protocol.Central_ack
               { status = Protocol.Central_insufficient; new_amount = current })
        else begin
          let txn = Database.begin_txn t.db in
          match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
          | Ok new_amount ->
              Database.commit txn;
              record_history t ~item ~delta ~path:"central";
              reply (Protocol.Central_ack { status = Protocol.Central_applied; new_amount })
          | Error _ ->
              Database.abort txn;
              reply
                (Protocol.Central_ack
                   { status = Protocol.Central_insufficient; new_amount = current })
        end

(* Finalise a prepared transaction at this participant (from a Decision
   message or the termination protocol). *)
let finalize_participant t ~txid decision =
  match Two_phase.Participant.on_decision t.participant ~txid decision with
  | Two_phase.Participant.Apply -> (
      match Hashtbl.find_opt t.participant_txns txid with
      | Some p ->
          Database.commit p.p_txn;
          record_history t ~item:p.p_item ~delta:p.p_delta ~path:"immediate";
          Hashtbl.remove t.participant_txns txid;
          Lock_manager.release_all t.locks ~owner:txid;
          span_field t p.p_span "decision" "commit";
          span_end t p.p_span;
          Txn_log.record_outcome t.txn_log ~txid decision ~at:(now t)
      | None -> ())
  | Two_phase.Participant.Revert -> (
      match Hashtbl.find_opt t.participant_txns txid with
      | Some p ->
          Database.abort p.p_txn;
          Hashtbl.remove t.participant_txns txid;
          Lock_manager.release_all t.locks ~owner:txid;
          span_field t p.p_span "decision" "abort";
          span_warn t p.p_span;
          span_end t p.p_span;
          Txn_log.record_outcome t.txn_log ~txid decision ~at:(now t)
      | None -> ())
  | Two_phase.Participant.Ignore -> ()

(* Full-cohort adjudication: the storage-fault extension of cooperative
   termination. When a coordinator answers [No_record] (its protocol log
   lost the txid), or when our own coordination's outcome record may be
   among what our log lost, presumed abort is unsound — the decision may
   have existed and been erased. One sweep asks every fellow at once:

   - any [Peer_decided] answer wins: it is a durable record of the one
     decision ever taken;
   - any [Peer_will_refuse] proves commit impossible — the pledge is
     only given by a non-amnesiac site that has never voted Ready, and
     commit needs every vote;
   - a complete sweep of unanimous [Peer_prepared] makes abort
     consistent with every surviving effect: a site that applied the
     commit either still holds its record (contradiction) or has since
     lost its log — and a log-losing site quarantines and repairs the
     item, erasing the effect. An amnesiac coordinator never decides
     spontaneously, so no commit record can appear after the sweep.

   Incomplete sweeps (timeouts) retry, budget-bounded so a dead cohort
   cannot keep the event queue alive; on exhaustion the doubt stands,
   marked warn on the asking participant's [span] (a warn instant when
   the asker is a recovering site with no span open). *)
let max_adjudication_sweeps = 64

let adjudicate ?span t ~txid ~fellows ~still_wanted ~decide =
  let decide d = if still_wanted () then decide d in
  if fellows = [] then decide Two_phase.Abort
  else begin
    let rec sweep n =
      if still_wanted () && not (is_down t) then begin
        if n >= max_adjudication_sweeps then begin
          if tracing t then
            match span with
            | Some sp ->
                span_field t sp "adjudication" "gave_up";
                span_warn t sp
            | None ->
                span_instant t ~status:Avdb_obs.Span.Warn ~category:"2pc"
                  "2pc.adjudication_gave_up"
                  ~fields:[ ("txid", string_of_int txid); ("sweeps", string_of_int n) ]
        end
        else begin
          let outstanding = ref (List.length fellows) in
          let decided = ref None in
          let refused = ref false in
          let complete = ref true in
          let finish_one () =
            decr outstanding;
            if !outstanding = 0 then begin
              match !decided with
              | Some d -> decide d
              | None ->
                  if !refused || !complete then decide Two_phase.Abort
                  else
                    ignore
                      (Engine.schedule (engine t)
                         ~delay:(config t).Config.repair_interval
                         (fenced t (fun () -> sweep (n + 1))))
            end
          in
          List.iter
            (fun fellow ->
              t.metrics.Update.Metrics.termination_queries <-
                t.metrics.Update.Metrics.termination_queries + 1;
              Rpc.call t.shared.rpc ~src:t.addr ~dst:fellow
                ~timeout:(config t).Config.rpc_timeout
                (Protocol.Peer_decision_query { txid })
                (fenced t (fun response ->
                     (match response with
                     | Ok (Protocol.Peer_decision_status { status; _ }) -> (
                         match status with
                         | Protocol.Peer_decided d ->
                             if !decided = None then decided := Some d
                         | Protocol.Peer_will_refuse -> refused := true
                         | Protocol.Peer_prepared -> ())
                     | Ok _ | Error _ -> complete := false);
                     finish_one ())))
            fellows
        end
      end
    in
    sweep 0
  end

(* Termination protocol (cooperative, Bernstein et al. §7): a participant
   left prepared past the decision timeout round-robins over the
   coordinator, the base and its fellow cohort members.

   - The coordinator answers {!Protocol.Query_decision} from its durable
     log: [Decided] resolves the doubt, [Unknown_txn] means it never
     started the transaction (Start is logged before the prepare
     broadcast), so abort is safe (presumed abort).
   - A cohort member answers {!Protocol.Peer_decision_query}:
     [Peer_decided] resolves; [Peer_will_refuse] is a durable pledge
     never to vote Ready, and since commit requires every cohort vote the
     asker may abort; [Peer_prepared] means the peer is equally in doubt.

   No heuristic decision is ever taken: if nobody knows, the participant
   stays prepared (holding its lock) and retries. The retry budget is
   bounded so a permanently-dead coordinator cannot keep the event queue
   alive forever; resolution is then driven by the recovered
   coordinator's decision re-broadcast, or by this site's own next
   recovery restarting the checks with a fresh budget. *)
let max_decision_queries = 64

let termination_targets t ~coordinator ~cohort ~item =
  let fellows =
    List.filter
      (fun a -> not (Address.equal a t.addr || Address.equal a coordinator))
      cohort
  in
  (* the item's base first among the fellows: it is the one whose ack
     defines user-visible completion, so it is the most likely to know *)
  let base, rest = List.partition (Address.equal (base_addr_for t ~item)) fellows in
  coordinator :: (base @ rest)

(* A termination outcome worth a warning — the doubt outlived the
   protocol's budget, or resolving it needed more than presumed abort —
   recorded on the in-doubt participant's open span. *)
let warn_termination t p how =
  if tracing t then begin
    span_field t p.p_span "termination" how;
    span_warn t p.p_span
  end

let rec schedule_termination_check t ~txid =
  ignore
    (Engine.schedule (engine t) ~delay:(config t).Config.decision_timeout
       (fenced t (fun () ->
            match Hashtbl.find_opt t.participant_txns txid with
            | None -> () (* decision arrived meanwhile *)
            | Some p ->
                if is_down t then schedule_termination_check t ~txid
                else if Mutation.enabled Mutation.Unilateral_abort then begin
                  (* Mutation: the removed [abort_pending] path — give up on
                     the in-doubt transaction without asking anyone. If the
                     coordinator decided Commit, this site diverges. *)
                  warn_termination t p "unilateral";
                  finalize_participant t ~txid Two_phase.Abort
                end
                else if p.p_queries >= max_decision_queries then
                  (* blocked until the coordinator resurfaces *)
                  warn_termination t p "blocked"
                else begin
                  let targets =
                    termination_targets t ~coordinator:p.p_coordinator ~cohort:p.p_cohort
                      ~item:p.p_item
                  in
                  let target = List.nth targets (p.p_queries mod List.length targets) in
                  p.p_queries <- p.p_queries + 1;
                  t.metrics.Update.Metrics.termination_queries <-
                    t.metrics.Update.Metrics.termination_queries + 1;
                  if tracing t then
                    span_instant t ~category:"2pc" "2pc.termination_query"
                      ~fields:
                        [
                          ("txid", string_of_int txid);
                          ("target", Address.to_string target);
                        ];
                  if Address.equal target p.p_coordinator then
                    Rpc.call t.shared.rpc ~src:t.addr ~dst:target
                      ~timeout:(config t).Config.rpc_timeout ~retry:(retry_policy t)
                      (Protocol.Query_decision { txid })
                      (fenced t (fun response ->
                           match response with
                           | Ok (Protocol.Decision_status { status; _ }) -> (
                               match status with
                               | Protocol.Decided decision ->
                                   finalize_participant t ~txid decision
                               | Protocol.Still_pending -> schedule_termination_check t ~txid
                               | Protocol.Unknown_txn ->
                                   finalize_participant t ~txid Two_phase.Abort
                               | Protocol.No_record ->
                                   (* the coordinator's log lost the txid:
                                      presumed abort is unsound there, so
                                      adjudicate with the full cohort *)
                                   warn_termination t p "adjudicate";
                                   let fellows =
                                     List.filter
                                       (fun a ->
                                         not
                                           (Address.equal a t.addr
                                           || Address.equal a p.p_coordinator))
                                       p.p_cohort
                                   in
                                   adjudicate ~span:p.p_span t ~txid ~fellows
                                     ~still_wanted:(fun () ->
                                       Hashtbl.mem t.participant_txns txid)
                                     ~decide:(fun d -> finalize_participant t ~txid d))
                           | Ok _ | Error _ -> schedule_termination_check t ~txid))
                  else
                    Rpc.call t.shared.rpc ~src:t.addr ~dst:target
                      ~timeout:(config t).Config.rpc_timeout ~retry:(retry_policy t)
                      (Protocol.Peer_decision_query { txid })
                      (fenced t (fun response ->
                           match response with
                           | Ok (Protocol.Peer_decision_status { status; _ }) -> (
                               match status with
                               | Protocol.Peer_decided decision ->
                                   finalize_participant t ~txid decision
                               | Protocol.Peer_will_refuse ->
                                   finalize_participant t ~txid Two_phase.Abort
                               | Protocol.Peer_prepared ->
                                   schedule_termination_check t ~txid)
                           | Ok _ | Error _ -> schedule_termination_check t ~txid))
                end)))

let handle_prepare t ~span ~txid ~coordinator ~cohort ~item ~delta ~reply =
  (* Participant span: open from the prepare through lock wait and
     tentative apply, closed by the decision (it outlives the RPC span,
     which only covers prepare-to-vote). *)
  let psp = span_start t ?parent:span ~category:"2pc" "2pc.participant" in
  span_field_int t psp "txid" txid;
  span_field t psp "item" item;
  let refuse () =
    span_field t psp "vote" "refuse";
    span_warn t psp;
    span_end t psp
  in
  (* A refusal pledge (cooperative termination) or an already-finalised
     outcome poisons the txid: a late or duplicated prepare must never
     re-open it. *)
  let poisoned () =
    Txn_log.is_refused t.txn_log ~txid
    ||
    match Txn_log.find t.txn_log ~txid with
    | Some { Txn_log.outcome = Some _; _ } -> true
    | Some _ | None -> false
  in
  (* A quarantined replica must not vote Ready: its row is untrusted and
     under repair. Refusing also freezes new commits on the item
     cluster-wide until the repair snapshot is complete. *)
  if poisoned () || Hashtbl.mem t.quarantined item || not (item_known t ~item) then begin
    ignore (Two_phase.Participant.on_prepare t.participant ~txid ~can_apply:false);
    refuse ();
    reply (Protocol.Vote { txid; vote = Two_phase.Refuse })
  end
  else
    Lock_manager.acquire t.locks ~owner:txid ~key:item Lock_manager.Exclusive
      ~timeout:(config t).Config.lock_timeout
      (fenced t (fun lock_result ->
        let can_apply =
          match lock_result with
          | Error `Timeout -> false
          | Ok () -> (
              (* re-check the poison: a refusal pledge given to a cohort
                 member while we waited for the lock binds this vote *)
              (not (poisoned ()))
              &&
              match amount_of t ~item with
              | Some current -> current + delta >= 0
              | None -> false)
        in
        let can_apply =
          can_apply
          &&
          let txn = Database.begin_txn t.db in
          match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
          | Ok _ ->
              Hashtbl.replace t.participant_txns txid
                { p_txn = txn; p_coordinator = coordinator; p_cohort = cohort;
                  p_item = item; p_delta = delta; p_span = psp; p_queries = 0 };
              true
          | Error _ ->
              Database.abort txn;
              false
        in
        let vote = Two_phase.Participant.on_prepare t.participant ~txid ~can_apply in
        if vote = Two_phase.Refuse then begin
          Lock_manager.release_all t.locks ~owner:txid;
          refuse ()
        end
        else begin
          span_field t psp "vote" "ready";
          (* The prepared record: logged in the same atomic event as the
             Ready vote, so a crash can never leave us Ready-but-unlogged. *)
          if Txn_log.find t.txn_log ~txid = None then
            Txn_log.record_start t.txn_log ~txid ~coordinator ~cohort ~item ~delta
              ~at:(now t);
          schedule_termination_check t ~txid
        end;
        reply (Protocol.Vote { txid; vote })))

let handle_decision t ~txid ~decision ~reply =
  finalize_participant t ~txid decision;
  reply (Protocol.Decision_ack { txid })

let handle_query_decision t ~txid ~reply =
  let status =
    match Hashtbl.find_opt t.coordinators txid with
    | Some coord -> (
        match Two_phase.Coordinator.decision coord.machine with
        | Some d -> Protocol.Decided d
        | None -> Protocol.Still_pending)
    | None -> (
        match Txn_log.find t.txn_log ~txid with
        | Some { Txn_log.outcome = Some d; _ } -> Protocol.Decided d
        | Some { Txn_log.outcome = None; coordinator; _ }
          when Address.equal coordinator t.addr ->
            if t.amnesia then
              (* the outcome record may have been lost with the log
                 damage rather than never written: recovery is
                 adjudicating this entry with the cohort; hold askers
                 off until it resolves *)
              Protocol.Still_pending
            else begin
              (* We coordinated this txn but hold neither an in-memory
                 machine (reset on recovery) nor a logged outcome: we
                 crashed before deciding. Outcomes are logged before any
                 Commit is broadcast, so abort is the only possible verdict
                 (presumed abort); log it so repeated queries agree. *)
              Txn_log.record_outcome t.txn_log ~txid Two_phase.Abort ~at:(now t);
              Protocol.Decided Two_phase.Abort
            end
        | Some { Txn_log.outcome = None; _ } ->
            (* we know the txn but not its outcome: only possible while it
               is still being coordinated elsewhere *)
            Protocol.Still_pending
        | None -> if t.amnesia then Protocol.No_record else Protocol.Unknown_txn)
  in
  reply (Protocol.Decision_status { txid; status })

(* Cooperative termination, server side: tell a fellow in-doubt cohort
   member what we know. Answering a query for a transaction we have never
   heard of records a durable refusal pledge first — from then on any late
   prepare for that txid is refused, which is what makes the asker's
   abort sound. *)
let handle_peer_decision_query t ~txid ~reply =
  let status =
    match Hashtbl.find_opt t.coordinators txid with
    | Some coord -> (
        match Two_phase.Coordinator.decision coord.machine with
        | Some d -> Protocol.Peer_decided d
        | None -> Protocol.Peer_prepared)
    | None -> (
        match Txn_log.find t.txn_log ~txid with
        | Some { Txn_log.outcome = Some d; _ } -> Protocol.Peer_decided d
        | Some { Txn_log.outcome = None; coordinator; _ }
          when Address.equal coordinator t.addr ->
            if t.amnesia then
              (* under adjudication by our own recovery; equally in doubt *)
              Protocol.Peer_prepared
            else begin
              (* our own coordination, crashed before deciding: presumed
                 abort, logged so every answer agrees from now on *)
              Txn_log.record_outcome t.txn_log ~txid Two_phase.Abort ~at:(now t);
              Protocol.Peer_decided Two_phase.Abort
            end
        | Some { Txn_log.outcome = None; _ } -> Protocol.Peer_prepared
        | None ->
            if t.amnesia then
              (* the pledge would be a lie: we may have voted Ready and
                 lost the record. Answer "equally in doubt" — never a
                 promise — and let the asker find a surviving record or
                 adjudicate elsewhere. *)
              Protocol.Peer_prepared
            else begin
              Txn_log.record_refused t.txn_log ~txid ~at:(now t);
              if tracing t then
                span_instant t ~category:"2pc" "2pc.refuse_pledge"
                  ~fields:[ ("txid", string_of_int txid) ];
              Protocol.Peer_will_refuse
            end)
  in
  reply (Protocol.Peer_decision_status { txid; status })

let handle_sync t ~src ~counters ~av_info ~ack =
  if not (is_down t) then begin
    List.iter
      (fun (item, volume) -> Peer_view.observe t.view ~site:src ~item ~volume ~at:(now t))
      av_info;
    (* The sender's cumulative ack of OUR counters: it holds everything of
       ours up to that version, so our later flushes to it shrink to the
       true backlog. *)
    (match List.assoc_opt (Address.to_int t.addr) ack with
    | Some upto -> Delay_sync.note_conveyed t.sync ~peer:src ~upto
    | None -> ());
    apply_sync_counters t ~src counters
  end

(* --- autonomous AV circulation (extension of the paper's Â§3.4) ---

   When a Delay Update leaves an item's available AV below the configured
   low watermark, refill in the background from one peer, aiming at twice
   the watermark. One in-flight refill per item; failures are silent (the
   foreground path still works on demand). *)

let rec maybe_prefetch t ~item =
  match (config t).Config.prefetch_low with
  | None -> ()
  | Some low ->
      if
        (not (is_down t))
        && (not (Hashtbl.mem t.prefetch_in_flight item))
        && Av_table.is_defined t.av ~item
        && Av_table.available t.av ~item < low
      then begin
        let strategy = (config t).Config.strategy in
        let exclude = Address.Set.singleton t.addr in
        match
          Strategy.select strategy ~rng:t.rng ~state:t.sel_state ~self:t.addr
            ~peers:(peers_for t ~item) ~fallback:(av_fallback t ~item) ~view:t.view ~item
            ~exclude
        with
        | None -> ()
        | Some target ->
            Hashtbl.replace t.prefetch_in_flight item ();
            t.metrics.Update.Metrics.prefetch_requests <-
              t.metrics.Update.Metrics.prefetch_requests + 1;
            let want = (2 * low) - Av_table.available t.av ~item in
            let sp = span_start t ~category:"av" "av.prefetch" in
            span_field t sp "item" item;
            span_field_int t sp "want" want;
            let sync, sync_upto = sync_piggyback_for t target in
            let request =
              Protocol.Av_request
                {
                  item;
                  amount = want;
                  requester_available = Av_table.available t.av ~item;
                  sync;
                }
            in
            Rpc.call t.shared.rpc ~src:t.addr ~dst:target
              ~timeout:(config t).Config.rpc_timeout ~retry:(retry_policy t) ~span:sp request
              (fenced t (fun response ->
                Hashtbl.remove t.prefetch_in_flight item;
                match response with
                | Ok (Protocol.Av_grant { granted; donor_available; av_levels; sync }) ->
                    Delay_sync.note_conveyed t.sync ~peer:target ~upto:sync_upto;
                    apply_sync_counters t ~src:target sync;
                    List.iter
                      (fun (item, volume) ->
                        Peer_view.observe t.view ~site:target ~item ~volume ~at:(now t))
                      av_levels;
                    Peer_view.observe t.view ~site:target ~item ~volume:donor_available
                      ~at:(now t);
                    span_field_int t sp "granted" granted;
                    span_end t sp;
                    if granted > 0 then begin
                      t.metrics.Update.Metrics.av_volume_received <-
                        t.metrics.Update.Metrics.av_volume_received + granted;
                      match Av_table.deposit t.av ~item granted with
                      | Ok () -> maybe_prefetch t ~item
                      | Error e -> failwith ("Site.maybe_prefetch deposit: " ^ e)
                    end
                | Ok _ | Error _ ->
                    span_warn t sp;
                    span_end t sp))
      end

(* --- Delay Update (client side) --- *)

(* Acquire [need] units of AV on [item], leaving exactly [need] held on
   success. On shortage, holds everything local and circulates AV from
   peers (the selecting + deciding functions), one correspondence per peer
   asked; surplus from a final over-grant stays available locally
   ("remaining AV is stored at the local AV table"). On failure every
   volume gathered is released back to available - nothing is lost, and
   what peers sent stays at this site for future updates. *)
let acquire_av t ?parent ~item ~need k =
  let av_ok tag = function
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "Site.acquire_av %s: %s" tag e)
  in
  if need < 0 then invalid_arg "Site.acquire_av: negative need";
  if need = 0 then k (Ok 0)
  else if Av_table.available t.av ~item >= need then begin
    av_ok "hold" (Av_table.hold t.av ~item need);
    k (Ok 0)
  end
  else begin
    (* Only the shortage path gets a span: a locally-satisfied hold is not
       an acquisition, and the quiet case would swamp the trace. *)
    t.metrics.Update.Metrics.av_shortages <- t.metrics.Update.Metrics.av_shortages + 1;
    let sp = span_start t ?parent ~category:"av" "av.acquire" in
    span_field t sp "item" item;
    span_field_int t sp "need" need;
    let acquired = ref (Av_table.hold_all t.av ~item) in
    let tried = ref (Address.Set.singleton t.addr) in
    let rounds = ref 0 in
    let give_up reason =
      av_ok "release" (Av_table.release t.av ~item !acquired);
      if tracing t then
        span_field t sp "reason" (Format.asprintf "%a" Update.pp_reason reason);
      span_warn t sp;
      span_end t sp;
      k (Error reason)
    in
    let rec step () =
      if is_down t then give_up Update.Unreachable
      else if !acquired >= need then begin
        av_ok "release surplus" (Av_table.release t.av ~item (!acquired - need));
        span_field_int t sp "rounds" !rounds;
        span_end t sp;
        k (Ok !rounds)
      end
      else begin
        let strategy = (config t).Config.strategy in
        match
          Strategy.select strategy ~rng:t.rng ~state:t.sel_state ~self:t.addr
            ~peers:(peers_for t ~item) ~fallback:(av_fallback t ~item) ~view:t.view ~item
            ~exclude:!tried
        with
        | None -> give_up Update.Av_exhausted
        | Some target ->
            tried := Address.Set.add target !tried;
            incr rounds;
            t.metrics.Update.Metrics.av_requests_sent <-
              t.metrics.Update.Metrics.av_requests_sent + 1;
            let sync, sync_upto = sync_piggyback_for t target in
            let asked_at = now t in
            let request =
              Protocol.Av_request
                {
                  item;
                  amount = need - !acquired;
                  requester_available = Av_table.available t.av ~item;
                  sync;
                }
            in
            Rpc.call t.shared.rpc ~src:t.addr ~dst:target
              ~timeout:(config t).Config.rpc_timeout ~retry:(retry_policy t) ~span:sp request
              (fenced t (fun response ->
                (match response with
                | Ok (Protocol.Av_grant { granted; donor_available; av_levels; sync }) ->
                    Avdb_metrics.Sketch.add t.metrics.Update.Metrics.grant_latency
                      (Avdb_sim.Time.to_ms (Avdb_sim.Time.diff (now t) asked_at));
                    (* The reply acknowledges the request's piggyback:
                       counters up to [sync_upto] reached this peer, so
                       later flushes can omit them. *)
                    Delay_sync.note_conveyed t.sync ~peer:target ~upto:sync_upto;
                    apply_sync_counters t ~src:target sync;
                    List.iter
                      (fun (item, volume) ->
                        Peer_view.observe t.view ~site:target ~item ~volume ~at:(now t))
                      av_levels;
                    Peer_view.observe t.view ~site:target ~item ~volume:donor_available
                      ~at:(now t);
                    if granted > 0 then begin
                      t.metrics.Update.Metrics.av_volume_received <-
                        t.metrics.Update.Metrics.av_volume_received + granted;
                      av_ok "deposit grant" (Av_table.deposit t.av ~item granted);
                      (* Mutation: credit the grant twice — volume conjured
                         out of thin air; exact conservation must convict. *)
                      if Mutation.enabled Mutation.Double_deposit then
                        av_ok "double deposit" (Av_table.deposit t.av ~item granted);
                      av_ok "hold grant" (Av_table.hold t.av ~item granted);
                      acquired := !acquired + granted
                    end
                | Ok _ | Error _ -> ());
                step ()))
      end
    in
    step ()
  end

let delay_update t ~item ~delta ~finish =
  let root = span_start t ~category:"update" "update.delay" in
  (* Fields go on the span only if it is headed for an export: attaching
     them to a sampled-out (pending) span is pure throughput loss on THE
     hot path. A warn or slow finish can still promote the span below, in
     which case the fields are re-attached while the data is in scope. *)
  let recorded = Avdb_obs.Tracer.recording t.shared.tracer root in
  if recorded then begin
    span_field t root "item" item;
    span_field_int t root "delta" delta
  end;
  let finish outcome =
    (match outcome with
    | Update.Rejected _ -> span_warn t root
    | Update.Applied _ -> ());
    span_end t root;
    if (not recorded) && Avdb_obs.Tracer.recording t.shared.tracer root then begin
      span_field t root "item" item;
      span_field_int t root "delta" delta
    end;
    finish outcome
  in
  if delta >= 0 then begin
    (* Positive deltas create AV; no communication at all. [mint] rather
       than [deposit]: new volume enters the conservation ledger here,
       whereas grants from peers merely move existing volume. *)
    (match Av_table.mint t.av ~item delta with
    | Ok () -> ()
    | Error e -> failwith ("Site.delay_update mint: " ^ e));
    apply_local_delta t ~item ~delta;
    finish (Update.Applied Update.Local)
  end
  else begin
    let need = -delta in
    acquire_av t ~parent:root ~item ~need (function
      | Error reason -> finish (Update.Rejected reason)
      | Ok rounds ->
          apply_local_delta t ~item ~delta;
          (match Av_table.consume t.av ~item need with
          | Ok () -> ()
          | Error e -> failwith ("Site.delay_update consume: " ^ e));
          maybe_prefetch t ~item;
          finish
            (Update.Applied
               (if rounds = 0 then Update.Local else Update.With_transfer rounds)))
  end

(* Atomic multi-item Delay Update: acquire AV for every negative delta
   first (sequentially), then apply all deltas in one local storage
   transaction. If any acquisition fails, holds taken for earlier items
   are released and nothing is applied. *)
let batch_update t ~deltas ~finish =
  let root = span_start t ~category:"update" "update.delay_batch" in
  span_field_int t root "items" (List.length deltas);
  let finish outcome =
    (match outcome with
    | Update.Rejected _ -> span_warn t root
    | Update.Applied _ -> ());
    span_end t root;
    finish outcome
  in
  let coalesced =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (item, delta) ->
        Hashtbl.replace tbl item (delta + Option.value ~default:0 (Hashtbl.find_opt tbl item)))
      deltas;
    Hashtbl.fold (fun item delta acc -> (item, delta) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let release_held held =
    List.iter
      (fun (item, need) ->
        match Av_table.release t.av ~item need with
        | Ok () -> ()
        | Error e -> failwith ("Site.batch_update release: " ^ e))
      held
  in
  let apply_all () =
    let txn = Database.begin_txn t.db in
    List.iter
      (fun (item, delta) ->
        match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
        | Ok _ -> ()
        | Error e -> failwith ("Site.batch_update apply: " ^ e))
      coalesced;
    Database.commit txn;
    List.iter
      (fun (item, delta) ->
        record_history t ~item ~delta ~path:"delay-batch";
        Delay_sync.queue t.sync ~item ~delta;
        if delta >= 0 then begin
          match Av_table.mint t.av ~item delta with
          | Ok () -> ()
          | Error e -> failwith ("Site.batch_update mint: " ^ e)
        end
        else begin
          match Av_table.consume t.av ~item (-delta) with
          | Ok () -> ()
          | Error e -> failwith ("Site.batch_update consume: " ^ e)
        end)
      coalesced;
    schedule_sync_flush t;
    List.iter (fun (item, _) -> maybe_prefetch t ~item) coalesced
  in
  let rec acquire_loop pending held total_rounds =
    match pending with
    | [] ->
        apply_all ();
        finish
          (Update.Applied
             (if total_rounds = 0 then Update.Local else Update.With_transfer total_rounds))
    | (item, delta) :: rest ->
        if delta >= 0 then acquire_loop rest held total_rounds
        else begin
          let need = -delta in
          acquire_av t ~parent:root ~item ~need (function
            | Ok rounds -> acquire_loop rest ((item, need) :: held) (total_rounds + rounds)
            | Error reason ->
                release_held held;
                finish (Update.Rejected reason))
        end
  in
  acquire_loop coalesced [] 0

(* --- Immediate Update (coordinator side) --- *)

let immediate_update t ~item ~delta ~finish =
  let txid = fresh_txid t in
  let root = span_start t ~category:"update" "update.immediate" in
  span_field t root "item" item;
  span_field_int t root "delta" delta;
  span_field_int t root "txid" txid;
  let finish outcome =
    (match outcome with
    | Update.Rejected _ -> span_warn t root
    | Update.Applied _ -> ());
    span_end t root;
    finish outcome
  in
  (* Cohort = the item's replica set (everyone under full replication);
     user-visible completion keys on the item's base, not a global one. *)
  let participant_addrs = peers_for t ~item in
  let machine =
    Two_phase.Coordinator.create ~txid ~participants:participant_addrs
      ~base:(base_addr_for t ~item)
  in
  Txn_log.record_start t.txn_log ~txid ~coordinator:t.addr ~cohort:participant_addrs ~item
    ~delta ~at:(now t);
  let coord = { machine; finish; local_txn = None; local_finalized = false } in
  Hashtbl.add t.coordinators txid coord;
  (* Phase spans: prepare runs from Broadcast_prepare until a decision is
     reached; the decision round from the broadcast until Completed. *)
  let prepare_span = ref None and decision_span = ref None in
  let close_phase r =
    match !r with
    | Some sp ->
        r := None;
        span_end t sp
    | None -> ()
  in
  let rec execute actions = List.iter execute_one actions
  and execute_one action =
    match action with
    | Two_phase.Coordinator.Broadcast_prepare ->
        let psp = span_start t ~parent:root ~category:"2pc" "2pc.prepare" in
        prepare_span := Some psp;
        (* Prepare and Decision deliberately run without the retry policy:
           a lost prepare is a Refuse vote, a lost decision is recovered by
           the participant's termination protocol. *)
        List.iter
          (fun p ->
            Rpc.call t.shared.rpc ~src:t.addr ~dst:p
              ~timeout:(config t).Config.prepare_timeout ~span:psp
              (Protocol.Prepare
                 { txid; coordinator = t.addr; cohort = participant_addrs; item; delta })
              (fenced t (fun response ->
                   match response with
                   | Ok (Protocol.Vote { txid = _; vote }) ->
                       execute (Two_phase.Coordinator.on_vote machine ~from:p vote)
                   | Ok _ | Error _ ->
                       execute (Two_phase.Coordinator.on_vote machine ~from:p Two_phase.Refuse))))
          participant_addrs;
        ignore
          (Engine.schedule (engine t) ~delay:(config t).Config.prepare_timeout
             (fenced t (fun () -> execute (Two_phase.Coordinator.on_vote_timeout machine))))
    | Two_phase.Coordinator.Broadcast_decision decision ->
        close_phase prepare_span;
        let dsp = span_start t ~parent:root ~category:"2pc" "2pc.decision" in
        span_field t dsp "decision"
          (match decision with Two_phase.Commit -> "commit" | Two_phase.Abort -> "abort");
        decision_span := Some dsp;
        (* Log the outcome before telling anyone (presumed abort depends on
           "no record => never decided"), then finalise the local part. *)
        Txn_log.record_outcome t.txn_log ~txid decision ~at:(now t);
        if not coord.local_finalized then begin
          coord.local_finalized <- true;
          (match coord.local_txn with
          | Some txn -> (
              match decision with
              | Two_phase.Commit ->
                  Database.commit txn;
                  record_history t ~item ~delta ~path:"immediate"
              | Two_phase.Abort -> Database.abort txn)
          | None -> ());
          Lock_manager.release_all t.locks ~owner:txid
        end;
        List.iter
          (fun p ->
            Rpc.call t.shared.rpc ~src:t.addr ~dst:p ~timeout:(config t).Config.ack_timeout
              ~span:dsp
              (Protocol.Decision { txid; decision })
              (fenced t (fun response ->
                   match response with
                   | Ok (Protocol.Decision_ack _) ->
                       execute (Two_phase.Coordinator.on_ack machine ~from:p)
                   | Ok _ | Error _ -> ())))
          participant_addrs;
        ignore
          (Engine.schedule (engine t) ~delay:(config t).Config.ack_timeout
             (fenced t (fun () -> execute (Two_phase.Coordinator.on_ack_timeout machine))))
    | Two_phase.Coordinator.Completed decision ->
        close_phase prepare_span;
        close_phase decision_span;
        Txn_log.record_outcome t.txn_log ~txid decision ~at:(now t);
        let outcome =
          match decision with
          | Two_phase.Commit -> Update.Applied Update.Immediate
          | Two_phase.Abort -> Update.Rejected Update.Txn_aborted
        in
        coord.finish outcome
    | Two_phase.Coordinator.Cleanup _ ->
        (* The coordination is closed (all acks, or we gave up waiting):
           mark it ended so recovery does not re-broadcast. Stragglers
           that missed the decision resolve through the pull-side
           termination protocol, served from the log. *)
        Txn_log.record_end t.txn_log ~txid ~at:(now t);
        Hashtbl.remove t.coordinators txid
  in
  (* Local participation: lock, tentatively apply, derive the local vote. *)
  Lock_manager.acquire t.locks ~owner:txid ~key:item Lock_manager.Exclusive
    ~timeout:(config t).Config.lock_timeout
    (fenced t (fun lock_result ->
      let local_vote =
        match lock_result with
        | Error `Timeout -> Two_phase.Refuse
        | Ok () -> (
            match amount_of t ~item with
            | Some current when current + delta >= 0 -> (
                let txn = Database.begin_txn t.db in
                match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
                | Ok _ ->
                    coord.local_txn <- Some txn;
                    Two_phase.Ready
                | Error _ ->
                    Database.abort txn;
                    Two_phase.Refuse)
            | Some _ | None -> Two_phase.Refuse)
      in
      if local_vote = Two_phase.Refuse then Lock_manager.release_all t.locks ~owner:txid;
      execute (Two_phase.Coordinator.start machine ~local_vote)))

(* --- Centralized baseline (client side) --- *)

let centralized_update t ~item ~delta ~finish =
  let root = span_start t ~category:"update" "update.central" in
  span_field t root "item" item;
  span_field_int t root "delta" delta;
  let finish outcome =
    (match outcome with
    | Update.Rejected _ -> span_warn t root
    | Update.Applied _ -> ());
    span_end t root;
    finish outcome
  in
  let base_addr = base_addr_for t ~item in
  if Address.equal t.addr base_addr then
    match amount_of t ~item with
    | None -> finish (Update.Rejected (Update.Unknown_item item))
    | Some current ->
        if current + delta < 0 then finish (Update.Rejected Update.Insufficient_stock)
        else begin
          let txn = Database.begin_txn t.db in
          (match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
          | Ok _ ->
              Database.commit txn;
              record_history t ~item ~delta ~path:"central"
          | Error e ->
              Database.abort txn;
              failwith ("Site.centralized_update: " ^ e));
          finish (Update.Applied Update.Central)
        end
  else
    Rpc.call t.shared.rpc ~src:t.addr ~dst:base_addr
      ~timeout:(config t).Config.rpc_timeout ~retry:(retry_policy t) ~span:root
      (Protocol.Central_update { item; delta })
      (fenced t (fun response ->
           match response with
           | Ok (Protocol.Central_ack { status = Protocol.Central_applied; _ }) ->
               finish (Update.Applied Update.Central)
           | Ok (Protocol.Central_ack { status = Protocol.Central_insufficient; _ }) ->
               finish (Update.Rejected Update.Insufficient_stock)
           | Ok (Protocol.Central_ack { status = Protocol.Central_unknown_item; _ }) ->
               finish (Update.Rejected (Update.Unknown_item item))
           | Ok _ -> finish (Update.Rejected Update.Txn_aborted)
           | Error Rpc.Timeout -> finish (Update.Rejected Update.Unreachable)))

(* --- epoch-quorum commit: the third update class ---

   Writers log intents durably and hand them to a deterministic sequencer
   that rotates over the item's subscriber set; the sequencer totally
   orders the buffered intents into one seal per epoch and decides it with
   a single-decree quorum round (ballot = escalation rank, so candidates
   at different ranks never share a ballot). Subscribers apply sealed
   epochs strictly in order, pulling any gap, so every replica applies the
   same prefix — no per-transaction cross-site lock round-trip. *)

let epoch_state t ~item = Hashtbl.find_opt t.epochs item

(* Subscribers in topology order, self included; memoised against the
   topology version like [peer_cache]. *)
let epoch_subs t st =
  let topo = topology t in
  let v = Topology.version topo in
  if st.ei_subs_version <> v then begin
    st.ei_subs <- List.map Address.of_int (Topology.subscribers topo ~item:st.ei_item);
    st.ei_subs_version <- v
  end;
  st.ei_subs

let epoch_quorum subs = (List.length subs / 2) + 1

(* Epoch e's sequencer is subscriber (e mod n); escalation step c moves
   one rank further and doubles as the Paxos ballot. *)
let epoch_candidate t st ~epoch ~ballot =
  let subs = epoch_subs t st in
  List.nth subs ((epoch + ballot) mod List.length subs)

(* The durable promise for (item, epoch): promise and accept records both
   count, so the in-memory state needs no mirror. *)
let epoch_promised t st ~epoch = Txn_log.epoch_promise t.txn_log ~item:st.ei_item ~epoch

(* This site's candidate seal: every buffered intent not yet inside an
   applied seal, in a deterministic total order. *)
let buffered_seal st =
  Hashtbl.fold
    (fun _ (i : Txn_log.intent) acc ->
      if Hashtbl.mem st.ei_sealed i.Txn_log.i_txid then acc else i :: acc)
    st.ei_buffer []
  |> List.sort (fun (a : Txn_log.intent) (b : Txn_log.intent) ->
         match
           compare (Address.to_int a.Txn_log.i_origin) (Address.to_int b.Txn_log.i_origin)
         with
         | 0 -> compare a.Txn_log.i_txid b.Txn_log.i_txid
         | c -> c)

(* Apply one sealed epoch: the durable seal record and the stock apply
   happen in the same atomic event, then the local writers whose intents
   it contains are woken. [proposer] marks the site that sealed it — the
   hook point for both epoch mutations. *)
let apply_seal t st ~epoch ~seal ~proposer =
  let item = st.ei_item in
  Txn_log.record_epoch_seal t.txn_log ~item ~epoch ~seal ~at:(now t);
  let applied_intents =
    (* Mutation: a non-proposer subscriber silently drops the seal's first
       intent — the replicas diverge and the checker must notice. *)
    if (not proposer) && Mutation.enabled Mutation.Epoch_drop_intent then
      match seal with [] -> [] | _ :: rest -> rest
    else seal
  in
  let txn = Database.begin_txn t.db in
  List.iter
    (fun (i : Txn_log.intent) ->
      (* Mutation: the proposer applies its own seal twice over. *)
      let d =
        if proposer && Mutation.enabled Mutation.Epoch_double_seal then
          2 * i.Txn_log.i_delta
        else i.Txn_log.i_delta
      in
      match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" d with
      | Ok _ -> ()
      | Error e ->
          Database.abort txn;
          failwith ("Site.apply_seal: " ^ e))
    applied_intents;
  Database.commit txn;
  List.iter
    (fun (i : Txn_log.intent) ->
      record_history t ~item ~delta:i.Txn_log.i_delta ~path:"epoch")
    applied_intents;
  st.ei_applied <- epoch;
  st.ei_attempts <- 0;
  Hashtbl.remove st.ei_stash epoch;
  if proposer then
    t.metrics.Update.Metrics.epochs_sealed <- t.metrics.Update.Metrics.epochs_sealed + 1;
  List.iter
    (fun (i : Txn_log.intent) ->
      Hashtbl.replace st.ei_sealed i.Txn_log.i_txid ();
      Hashtbl.remove st.ei_buffer i.Txn_log.i_txid;
      match Hashtbl.find_opt st.ei_waiters i.Txn_log.i_txid with
      | Some finish ->
          Hashtbl.remove st.ei_waiters i.Txn_log.i_txid;
          finish (Update.Applied Update.Epoch)
      | None -> ())
    seal

let rec drain_stash t st =
  match Hashtbl.find_opt st.ei_stash (st.ei_applied + 1) with
  | Some seal ->
      apply_seal t st ~epoch:(st.ei_applied + 1) ~seal ~proposer:false;
      drain_stash t st
  | None -> ()

(* Push the latest seal to every subscriber that has not acknowledged it;
   a receiver behind by more than one epoch pulls the gap itself. *)
let broadcast_commits t st =
  if st.ei_applied > 0 then begin
    let item = st.ei_item in
    match Txn_log.epoch_seal t.txn_log ~item ~epoch:st.ei_applied with
    | None -> ()  (* applied epoch below a snapshot floor: nothing to push *)
    | Some seal ->
        let epoch = st.ei_applied in
        List.iter
          (fun peer ->
            if not (Address.equal peer t.addr) then
              let acked =
                Option.value ~default:0
                  (Hashtbl.find_opt st.ei_acked (Address.to_int peer))
              in
              if acked < epoch then
                Rpc.call t.shared.rpc ~src:t.addr ~dst:peer
                  ~timeout:(config t).Config.rpc_timeout
                  (Protocol.Epoch_commit { item; epoch; seal })
                  (fenced t (function
                    | Ok (Protocol.Epoch_commit_ack { applied_epoch; _ }) ->
                        let p = Address.to_int peer in
                        if
                          applied_epoch
                          > Option.value ~default:0 (Hashtbl.find_opt st.ei_acked p)
                        then Hashtbl.replace st.ei_acked p applied_epoch
                    | Ok _ | Error _ -> ())))
          (epoch_subs t st)
  end

let apply_pulled_seals t st seals =
  List.iter
    (fun (epoch, seal) ->
      if epoch > st.ei_applied && not (Hashtbl.mem st.ei_stash epoch) then
        Hashtbl.replace st.ei_stash epoch seal)
    seals;
  drain_stash t st

(* The liveness pump: while this site holds unsealed intents (or stashed
   out-of-order seals), one tick per [epoch_interval] either proposes (if
   this site is the open epoch's current candidate), escalates to a
   takeover, or re-sends the intents to the candidate it believes in. *)
let rec ensure_pump t st =
  if
    (not st.ei_pump)
    && (Hashtbl.length st.ei_buffer > 0 || Hashtbl.length st.ei_stash > 0)
  then begin
    st.ei_pump <- true;
    ignore
      (Engine.schedule (engine t) ~delay:(config t).Config.epoch_interval
         (fenced t (fun () ->
              st.ei_pump <- false;
              pump_step t st;
              ensure_pump t st)))
  end

and pump_step t st =
  if (not (is_down t)) && (not (Hashtbl.mem t.quarantined st.ei_item)) && not st.ei_busy
  then begin
    if Hashtbl.length st.ei_stash > 0 then begin
      drain_stash t st;
      if Hashtbl.length st.ei_stash > 0 then request_pull t st
    end;
    if Hashtbl.length st.ei_buffer > 0 then begin
      st.ei_attempts <- st.ei_attempts + 1;
      let epoch = st.ei_applied + 1 in
      let ballot = (st.ei_attempts - 1) / 3 in
      let cand = epoch_candidate t st ~epoch ~ballot in
      if Address.equal cand t.addr then
        if ballot = 0 then
          let seal =
            (* ballot-0 value fixation: once this candidate durably
               accepted a value for the epoch it may never propose a
               different one at the same ballot *)
            match Txn_log.epoch_accept t.txn_log ~item:st.ei_item ~epoch with
            | Some (_, s) -> s
            | None -> buffered_seal st
          in
          run_propose t st ~epoch ~ballot ~seal
        else run_collect t st ~epoch ~ballot
      else resend_intents t st cand
    end
  end

(* Phase 2 for (item, epoch) at [ballot]: our own durable accept is both
   our vote and the value the ballot is forever bound to. *)
and run_propose t st ~epoch ~ballot ~seal =
  let item = st.ei_item in
  st.ei_busy <- true;
  Txn_log.record_epoch_accept t.txn_log ~item ~epoch ~ballot ~seal ~at:(now t);
  let subs = epoch_subs t st in
  let needed = epoch_quorum subs in
  let others = List.filter (fun a -> not (Address.equal a t.addr)) subs in
  let total = List.length others in
  let votes = ref 1 and replies = ref 0 and closed = ref false in
  let win () =
    if not !closed then begin
      closed := true;
      st.ei_busy <- false;
      if st.ei_applied + 1 = epoch then begin
        apply_seal t st ~epoch ~seal ~proposer:true;
        drain_stash t st;
        broadcast_commits t st
      end;
      ensure_pump t st
    end
  in
  if !votes >= needed then win ()
  else
    List.iter
      (fun peer ->
        Rpc.call t.shared.rpc ~src:t.addr ~dst:peer
          ~timeout:(config t).Config.rpc_timeout
          (Protocol.Epoch_propose { item; epoch; ballot; seal })
          (fenced t (fun response ->
               incr replies;
               (match response with
               | Ok (Protocol.Epoch_vote { accepted = true; _ }) ->
                   incr votes;
                   if !votes >= needed then win ()
               | Ok _ | Error _ -> ());
               if !replies = total && not !closed then begin
                 closed := true;
                 st.ei_busy <- false;
                 ensure_pump t st
               end)))
      others

(* Phase 1: a takeover candidate collects promises plus anything already
   accepted or sealed, so it decides the same value the crashed sequencer
   may have sealed — the epoch is presumed unsealed only when no acceptor
   in the quorum reports a value. *)
and run_collect t st ~epoch ~ballot =
  let item = st.ei_item in
  st.ei_busy <- true;
  t.metrics.Update.Metrics.epoch_takeovers <-
    t.metrics.Update.Metrics.epoch_takeovers + 1;
  Txn_log.record_epoch_promise t.txn_log ~item ~epoch ~ballot ~at:(now t);
  let subs = epoch_subs t st in
  let needed = epoch_quorum subs in
  let others = List.filter (fun a -> not (Address.equal a t.addr)) subs in
  let total = List.length others in
  let grants = ref 1 and replies = ref 0 and closed = ref false in
  let sealed_found = ref (Txn_log.epoch_seal t.txn_log ~item ~epoch) in
  let best = ref (Txn_log.epoch_accept t.txn_log ~item ~epoch) in
  let ahead = ref None in
  let finish_phase1 () =
    if not !closed then begin
      closed := true;
      match !sealed_found with
      | Some seal ->
          st.ei_busy <- false;
          if st.ei_applied + 1 = epoch then begin
            apply_seal t st ~epoch ~seal ~proposer:false;
            drain_stash t st
          end;
          broadcast_commits t st;
          ensure_pump t st
      | None -> (
          match !ahead with
          | Some peer ->
              (* a peer already applied this epoch but its seal sits below
                 its snapshot floor: catch up by pulling instead *)
              st.ei_busy <- false;
              Rpc.call t.shared.rpc ~src:t.addr ~dst:peer
                ~timeout:(config t).Config.rpc_timeout
                (Protocol.Epoch_pull { item; from_epoch = st.ei_applied })
                (fenced t (fun response ->
                     (match response with
                     | Ok (Protocol.Epoch_seals { seals; _ }) ->
                         apply_pulled_seals t st seals
                     | Ok _ | Error _ -> ());
                     ensure_pump t st))
          | None ->
              let seal =
                match !best with Some (_, s) -> s | None -> buffered_seal st
              in
              run_propose t st ~epoch ~ballot ~seal)
    end
  in
  if !grants >= needed then finish_phase1 ()
  else
    List.iter
      (fun peer ->
        Rpc.call t.shared.rpc ~src:t.addr ~dst:peer
          ~timeout:(config t).Config.rpc_timeout
          (Protocol.Epoch_collect { item; epoch; ballot })
          (fenced t (fun response ->
               incr replies;
               (match response with
               | Ok
                   (Protocol.Epoch_state
                     { promised; sealed; accepted; applied_epoch; _ }) ->
                   (match sealed with
                   | Some s -> sealed_found := Some s
                   | None -> if applied_epoch >= epoch then ahead := Some peer);
                   (match accepted with
                   | Some (b, s) -> (
                       match !best with
                       | Some (b', _) when b' >= b -> ()
                       | Some _ | None -> best := Some (b, s))
                   | None -> ());
                   if promised <= ballot then begin
                     incr grants;
                     if !grants >= needed then finish_phase1 ()
                   end
               | Ok _ | Error _ -> ());
               if !replies = total && not !closed then begin
                 closed := true;
                 st.ei_busy <- false;
                 ensure_pump t st
               end)))
      others

and resend_intents t st cand =
  let item = st.ei_item in
  Hashtbl.iter
    (fun _ (i : Txn_log.intent) ->
      t.metrics.Update.Metrics.epoch_intents_resent <-
        t.metrics.Update.Metrics.epoch_intents_resent + 1;
      Rpc.call t.shared.rpc ~src:t.addr ~dst:cand
        ~timeout:(config t).Config.rpc_timeout
        (Protocol.Epoch_intent
           { item; txid = i.Txn_log.i_txid; origin = i.Txn_log.i_origin;
             delta = i.Txn_log.i_delta })
        (fenced t (function
          | Ok (Protocol.Epoch_intent_ack { txid; sealed = true }) ->
              (* sealed in an epoch this replica has not applied yet *)
              if not (Hashtbl.mem st.ei_sealed txid) then request_pull t st
          | Ok _ | Error _ -> ())))
    st.ei_buffer

and request_pull t st =
  let others =
    List.filter (fun a -> not (Address.equal a t.addr)) (epoch_subs t st)
  in
  match others with
  | [] -> ()
  | _ ->
      let target = List.nth others (st.ei_attempts mod List.length others) in
      Rpc.call t.shared.rpc ~src:t.addr ~dst:target
        ~timeout:(config t).Config.rpc_timeout
        (Protocol.Epoch_pull { item = st.ei_item; from_epoch = st.ei_applied })
        (fenced t (function
          | Ok (Protocol.Epoch_seals { seals; _ }) -> apply_pulled_seals t st seals
          | Ok _ | Error _ -> ()))

(* Close the open epoch immediately once a full batch is buffered, instead
   of waiting out the pump tick. *)
let maybe_close t st =
  if
    (not st.ei_busy) && (not (is_down t))
    && (not (Hashtbl.mem t.quarantined st.ei_item))
    && Hashtbl.length st.ei_buffer >= (config t).Config.epoch_batch
  then begin
    let epoch = st.ei_applied + 1 in
    if Address.equal (epoch_candidate t st ~epoch ~ballot:0) t.addr then
      let seal =
        match Txn_log.epoch_accept t.txn_log ~item:st.ei_item ~epoch with
        | Some (_, s) -> s
        | None -> buffered_seal st
      in
      run_propose t st ~epoch ~ballot:0 ~seal
  end

(* Writer path: durable intent, then asynchronous replication — the
   client's continuation fires when a seal containing the txid is applied
   locally. No cross-site round-trip on the submission path. *)
let epoch_update t ~item ~delta ~finish =
  let st = Hashtbl.find t.epochs item in
  if tracing t then
    span_instant t ~category:"update" "update.epoch"
      ~fields:[ ("item", item); ("delta", string_of_int delta) ];
  let txid = fresh_txid t in
  Txn_log.record_intent t.txn_log ~txid ~origin:t.addr ~item ~delta ~at:(now t);
  Hashtbl.replace st.ei_buffer txid
    { Txn_log.i_txid = txid; i_origin = t.addr; i_delta = delta };
  Hashtbl.replace st.ei_waiters txid finish;
  maybe_close t st;
  ensure_pump t st

(* Convergence force-flush, the epoch-class analogue of
   [flush_sync ~force]: one immediate pump step per item plus a commit
   re-broadcast to laggards, so a quiescing cluster converges without
   waiting out pump ticks. *)
let flush_epochs t =
  if not (is_down t) then
    Hashtbl.iter
      (fun item st ->
        if not (Hashtbl.mem t.quarantined item) then begin
          broadcast_commits t st;
          if Hashtbl.length st.ei_buffer > 0 || Hashtbl.length st.ei_stash > 0 then begin
            pump_step t st;
            ensure_pump t st
          end
        end)
      t.epochs

let epoch_applied t ~item =
  Option.map (fun st -> st.ei_applied) (epoch_state t ~item)

let epoch_unsealed t =
  List.length
    (List.filter
       (fun (ie : Txn_log.intent_entry) ->
         not (Hashtbl.mem t.quarantined ie.Txn_log.in_item))
       (Txn_log.unsealed_intents t.txn_log))

(* --- epoch request handlers (server side) --- *)

let handle_epoch_intent t ~item ~txid ~origin ~delta ~reply =
  match epoch_state t ~item with
  | None -> reply (Protocol.Bad_request "not an epoch item")
  | Some st ->
      if Hashtbl.mem t.quarantined item then
        reply (Protocol.Bad_request "item quarantined")
      else if Hashtbl.mem st.ei_sealed txid then
        reply (Protocol.Epoch_intent_ack { txid; sealed = true })
      else begin
        if not (Hashtbl.mem st.ei_buffer txid) then
          Hashtbl.replace st.ei_buffer txid
            { Txn_log.i_txid = txid; i_origin = origin; i_delta = delta };
        reply (Protocol.Epoch_intent_ack { txid; sealed = false });
        maybe_close t st;
        ensure_pump t st
      end

let handle_epoch_propose t ~src ~item ~epoch ~ballot ~seal ~reply =
  match epoch_state t ~item with
  | None -> reply (Protocol.Bad_request "not an epoch item")
  | Some st ->
      if Hashtbl.mem t.quarantined item then
        reply (Protocol.Bad_request "item quarantined")
      else if epoch <= st.ei_applied then begin
        reply (Protocol.Epoch_vote { item; epoch; accepted = false });
        (* the proposer is behind a decided epoch: push it the seal so it
           cannot re-decide the epoch with a different value *)
        match Txn_log.epoch_seal t.txn_log ~item ~epoch with
        | Some seal ->
            Rpc.call t.shared.rpc ~src:t.addr ~dst:src
              ~timeout:(config t).Config.rpc_timeout
              (Protocol.Epoch_commit { item; epoch; seal })
              (fenced t (fun _ -> ()))
        | None -> ()
      end
      else if epoch <= st.ei_fence || ballot < epoch_promised t st ~epoch then
        reply (Protocol.Epoch_vote { item; epoch; accepted = false })
      else begin
        Txn_log.record_epoch_accept t.txn_log ~item ~epoch ~ballot ~seal ~at:(now t);
        reply (Protocol.Epoch_vote { item; epoch; accepted = true })
      end

let handle_epoch_commit t ~src ~item ~epoch ~seal ~reply =
  match epoch_state t ~item with
  | None -> reply (Protocol.Bad_request "not an epoch item")
  | Some st ->
      if Hashtbl.mem t.quarantined item then
        reply (Protocol.Bad_request "item quarantined")
      else begin
        if epoch = st.ei_applied + 1 then begin
          apply_seal t st ~epoch ~seal ~proposer:false;
          drain_stash t st
        end
        else if epoch > st.ei_applied then begin
          if not (Hashtbl.mem st.ei_stash epoch) then
            Hashtbl.replace st.ei_stash epoch seal;
          Rpc.call t.shared.rpc ~src:t.addr ~dst:src
            ~timeout:(config t).Config.rpc_timeout
            (Protocol.Epoch_pull { item; from_epoch = st.ei_applied })
            (fenced t (function
              | Ok (Protocol.Epoch_seals { seals; _ }) -> apply_pulled_seals t st seals
              | Ok _ | Error _ -> ()))
        end;
        reply (Protocol.Epoch_commit_ack { item; epoch; applied_epoch = st.ei_applied });
        ensure_pump t st
      end

let handle_epoch_pull t ~item ~from_epoch ~reply =
  match epoch_state t ~item with
  | None -> reply (Protocol.Bad_request "not an epoch item")
  | Some _ ->
      let seals =
        List.filter_map
          (fun (it, e, seal) ->
            if String.equal it item && e > from_epoch then Some (e, seal) else None)
          (Txn_log.epoch_seals t.txn_log)
      in
      reply (Protocol.Epoch_seals { item; seals })

let handle_epoch_collect t ~item ~epoch ~ballot ~reply =
  match epoch_state t ~item with
  | None -> reply (Protocol.Bad_request "not an epoch item")
  | Some st ->
      if Hashtbl.mem t.quarantined item then
        reply (Protocol.Bad_request "item quarantined")
      else begin
        let fenced_off = epoch <= st.ei_fence in
        if (not fenced_off) && ballot >= epoch_promised t st ~epoch then
          Txn_log.record_epoch_promise t.txn_log ~item ~epoch ~ballot ~at:(now t);
        reply
          (Protocol.Epoch_state
             {
               item;
               epoch;
               (* a fenced acceptor never grants: report an unbeatable
                  promise so the collector cannot count it *)
               promised =
                 (if fenced_off then max_int else epoch_promised t st ~epoch);
               sealed = Txn_log.epoch_seal t.txn_log ~item ~epoch;
               accepted = Txn_log.epoch_accept t.txn_log ~item ~epoch;
               applied_epoch = st.ei_applied;
             })
      end

(* Rebuild the in-memory epoch state from the durable log: the applied
   prefix from contiguous seal records (above any snapshot floor), the
   dedup set from seal contents, and the writer's own unsealed intents
   back into the buffer so the pump re-sends them. *)
let rebuild_epoch_state t =
  Hashtbl.iter
    (fun item st ->
      Hashtbl.reset st.ei_buffer;
      Hashtbl.reset st.ei_sealed;
      Hashtbl.reset st.ei_stash;
      Hashtbl.reset st.ei_waiters;
      Hashtbl.reset st.ei_acked;
      st.ei_attempts <- 0;
      st.ei_pump <- false;
      st.ei_busy <- false;
      st.ei_applied <- Txn_log.max_contiguous_seal t.txn_log ~item;
      st.ei_fence <- Stdlib.max st.ei_fence (Txn_log.epoch_floor t.txn_log ~item);
      List.iter
        (fun (it, _epoch, seal) ->
          if String.equal it item then
            List.iter
              (fun (i : Txn_log.intent) -> Hashtbl.replace st.ei_sealed i.Txn_log.i_txid ())
              seal)
        (Txn_log.epoch_seals t.txn_log);
      List.iter
        (fun (ie : Txn_log.intent_entry) ->
          if
            String.equal ie.Txn_log.in_item item
            && Address.equal ie.Txn_log.in_origin t.addr
          then
            Hashtbl.replace st.ei_buffer ie.Txn_log.in_txid
              {
                Txn_log.i_txid = ie.Txn_log.in_txid;
                i_origin = ie.Txn_log.in_origin;
                i_delta = ie.Txn_log.in_delta;
              })
        (Txn_log.unsealed_intents t.txn_log);
      ensure_pump t st)
    t.epochs

(* --- dynamic membership --- *)

(* Serve a joiner with the current replica plus the sync counters already
   folded into it: our own cumulative counters and everything we have
   applied from other origins. The joiner seeds its receiver state with
   these, so later notices apply only what the snapshot missed. *)
let handle_join t ~wanted ~reply =
  let want =
    match wanted with
    | None -> fun _ -> true
    | Some items ->
        let set = Hashtbl.create (List.length items) in
        List.iter (fun i -> Hashtbl.replace set i ()) items;
        fun item -> Hashtbl.mem set item
  in
  (* A quarantined row is exactly the state a joiner must never copy;
     send it donor-shopping instead. *)
  if Hashtbl.fold (fun item () acc -> acc || want item) t.quarantined false then
    reply (Protocol.Bad_request "item quarantined at donor")
  else begin
    (* Undo-based transactions write in place, so the raw table shows
       tentative 2PC deltas that may yet abort. Serve committed state:
       subtract every prepared-but-undecided delta, and list those
       transactions as [pending] so a repairing joiner can watch them
       resolve — a commit after the snapshot is otherwise invisible to
       it, non-regular items having no sync counters. *)
    let tentative = Hashtbl.create 8 in
    let note_tentative item delta =
      Hashtbl.replace tentative item
        (delta + Option.value ~default:0 (Hashtbl.find_opt tentative item))
    in
    let pending = ref [] in
    Hashtbl.iter
      (fun txid (p : participant_txn) ->
        if want p.p_item then begin
          note_tentative p.p_item p.p_delta;
          pending :=
            (txid, Address.to_int p.p_coordinator, p.p_item, p.p_delta) :: !pending
        end)
      t.participant_txns;
    Hashtbl.iter
      (fun txid (c : coord) ->
        if Two_phase.Coordinator.decision c.machine = None then
          match Txn_log.find t.txn_log ~txid with
          | Some e when want e.Txn_log.item ->
              if c.local_txn <> None && not c.local_finalized then
                note_tentative e.Txn_log.item e.Txn_log.delta;
              pending :=
                (txid, Address.to_int t.addr, e.Txn_log.item, e.Txn_log.delta)
                :: !pending
          | Some _ | None -> ())
      t.coordinators;
    let rows =
      Table.fold (Database.table t.db stock_table) ~init:[] ~f:(fun acc item row ->
          if want item then
            let amount =
              Value.as_int row.(0)
              - Option.value ~default:0 (Hashtbl.find_opt tentative item)
            in
            (item, amount, Value.as_bool row.(1)) :: acc
          else acc)
      |> List.rev
    in
    let own =
      List.map
        (fun (item, version, cum) -> (Address.to_int t.addr, item, version, cum))
        (Delay_sync.own_state t.sync ~want)
    in
    let applied = Delay_sync.applied_state t.sync ~want in
    let epochs =
      Hashtbl.fold
        (fun item st acc -> if want item then (item, st.ei_applied) :: acc else acc)
        t.epochs []
    in
    reply
      (Protocol.Join_snapshot
         { rows; sync_state = own @ applied; pending = !pending; epochs })
  end

(* Apply one join snapshot: overwrite the locally-bootstrapped rows with
   the live amounts and seed the sync receiver state with the counters
   already folded into them. *)
let apply_join_snapshot t ~rows ~sync_state ~epochs =
  let txn = Database.begin_txn t.db in
  let ok =
    List.for_all
      (fun (item, amount, _regular) ->
        match
          Database.set_col txn ~table:stock_table ~key:item ~col:"amount" (Value.Int amount)
        with
        | Ok () -> true
        | Error _ -> false)
      rows
  in
  if ok then begin
    Database.commit txn;
    List.iter
      (fun (origin, item, version, cum) -> Delay_sync.seed t.sync ~origin ~item ~version ~cum)
      sync_state;
    (* the snapshot rows already fold every seal through the donor's
       applied epoch: record the floor so this log never re-applies them *)
    List.iter
      (fun (item, applied) ->
        match Hashtbl.find_opt t.epochs item with
        | Some st when applied > st.ei_applied ->
            Txn_log.record_epoch_floor t.txn_log ~item ~epoch:applied ~at:(now t);
            st.ei_applied <- applied
        | Some _ | None -> ())
      epochs;
    true
  end
  else begin
    Database.abort txn;
    false
  end

(* Fetch the initial data (the paper's initial delivery). Under full
   replication: one snapshot from the global base. Under partial
   replication there is no site that holds everything — the joiner groups
   its interest set by per-item base and fetches one scoped snapshot per
   distinct base, so join traffic is bounded by the interest set, never by
   the catalogue. *)
let join t callback =
  let root = span_start t ~category:"membership" "membership.join" in
  let callback result =
    (match result with Error _ -> span_warn t root | Ok () -> ());
    span_end t root;
    callback result
  in
  let fetch ~dst ~wanted k =
    Rpc.call t.shared.rpc ~src:t.addr ~dst ~timeout:(config t).Config.rpc_timeout
      ~retry:(retry_policy t) ~span:root
      (Protocol.Join_request { wanted })
      (fenced t (fun response ->
           match response with
           | Ok (Protocol.Join_snapshot { rows; sync_state; pending = _; epochs }) ->
               if apply_join_snapshot t ~rows ~sync_state ~epochs then k (Ok ())
               else k (Error Update.Txn_aborted)
           | Ok _ -> k (Error Update.Txn_aborted)
           | Error Rpc.Timeout -> k (Error Update.Unreachable)))
  in
  if Topology.is_full (topology t) then begin
    if Address.equal t.addr t.base_addr then callback (Ok ())
    else fetch ~dst:t.base_addr ~wanted:None callback
  end
  else begin
    (* group this site's interest set (= its bootstrapped rows) by base *)
    let by_base = Hashtbl.create 8 in
    Table.fold (Database.table t.db stock_table) ~init:() ~f:(fun () item _ ->
        let b = base_addr_for t ~item in
        if not (Address.equal b t.addr) then
          Hashtbl.replace by_base b (item :: Option.value ~default:[] (Hashtbl.find_opt by_base b)));
    let groups = Hashtbl.fold (fun b items acc -> (b, items) :: acc) by_base [] in
    match groups with
    | [] -> callback (Ok ())
    | _ ->
        let outstanding = ref (List.length groups) in
        let failed = ref None in
        List.iter
          (fun (dst, items) ->
            fetch ~dst ~wanted:(Some items) (fun result ->
                (match result with
                | Ok () -> ()
                | Error e -> if !failed = None then failed := Some e);
                decr outstanding;
                if !outstanding = 0 then
                  callback (match !failed with Some e -> Error e | None -> Ok ())))
          groups
  end

(* --- public update entry point: the checking function --- *)

let submit_update t ~item ~delta callback =
  let started = now t in
  t.metrics.Update.Metrics.submitted <- t.metrics.Update.Metrics.submitted + 1;
  let finish =
    track_inflight t (fun outcome ->
        let result = { Update.outcome; latency = Time.diff (now t) started } in
        Update.Metrics.record t.metrics result;
        callback result)
  in
  if is_down t then finish (Update.Rejected Update.Unreachable)
  else if not (item_known t ~item) then
    finish (Update.Rejected (Update.Unknown_item item))
  else if Hashtbl.mem t.quarantined item then
    (* under repair after storage damage: refuse rather than write
       through an untrusted replica — corruption may cost availability,
       never consistency *)
    finish (Update.Rejected Update.Unreachable)
  else
    match (config t).Config.mode with
    | Config.Centralized -> centralized_update t ~item ~delta ~finish
    | Config.Autonomous ->
        (* The checking function: epoch class by catalogue, else AV
           defined => Delay Update, otherwise Immediate Update. *)
        if Hashtbl.mem t.epochs item then epoch_update t ~item ~delta ~finish
        else if Av_table.is_defined t.av ~item then delay_update t ~item ~delta ~finish
        else immediate_update t ~item ~delta ~finish

(* Reads with heterogeneous consistency: a local read is free and possibly
   stale (the retailer requirement); an authoritative read round-trips to
   the base replica (the maker requirement) and costs one correspondence. *)
let read_local t ~item =
  if Hashtbl.mem t.quarantined item then None
  else
    match amount_of t ~item with
    | Some v when Mutation.enabled Mutation.Forget_own_writes ->
      (* Mutation: subtract the site's own not-yet-flushed deltas — the
         replica "forgets" writes this session already committed. *)
      let pending =
        Option.value ~default:0 (List.assoc_opt item (pending_sync_deltas t))
      in
      Some (v - pending)
  | r -> r

let read_authoritative t ~item callback =
  let base_addr = base_addr_for t ~item in
  if is_down t then
    ignore (Engine.schedule (engine t) ~delay:Time.zero (fun () -> callback (Error Update.Unreachable)))
  else if Address.equal t.addr base_addr then callback (Ok (amount_of t ~item))
  else begin
    let root = span_start t ~category:"read" "read.authoritative" in
    span_field t root "item" item;
    let callback result =
      (match result with Error _ -> span_warn t root | Ok _ -> ());
      span_end t root;
      callback result
    in
    Rpc.call t.shared.rpc ~src:t.addr ~dst:base_addr
      ~timeout:(config t).Config.rpc_timeout ~retry:(retry_policy t) ~span:root
      (Protocol.Read_request { item })
      (fenced t (fun response ->
           match response with
           | Ok (Protocol.Read_value { amount }) -> callback (Ok amount)
           | Ok _ -> callback (Error Update.Txn_aborted)
           | Error Rpc.Timeout -> callback (Error Update.Unreachable)))
  end

let submit_batch t ~deltas callback =
  let started = now t in
  t.metrics.Update.Metrics.submitted <- t.metrics.Update.Metrics.submitted + 1;
  let finish =
    track_inflight t (fun outcome ->
        let result = { Update.outcome; latency = Time.diff (now t) started } in
        Update.Metrics.record t.metrics result;
        callback result)
  in
  if is_down t || (config t).Config.mode = Config.Centralized then
    finish (Update.Rejected Update.Unreachable)
  else begin
    let bad =
      List.find_map
        (fun (item, _) ->
          if not (item_known t ~item) then Some (Update.Unknown_item item)
          else if Hashtbl.mem t.quarantined item then Some Update.Unreachable
          else if not (Av_table.is_defined t.av ~item) then Some (Update.Not_regular item)
          else None)
        deltas
    in
    match bad with
    | Some reason -> finish (Update.Rejected reason)
    | None -> batch_update t ~deltas ~finish
  end

(* --- fault injection --- *)

let crash t =
  (* Capture what the disk held at the instant of death, with any armed
     faults applied. Guarded on [armed]: serialising the log files costs real
     work and a fault-free crash must stay free. *)
  if Fault_sink.armed t.wal_sink then
    Fault_sink.crash t.wal_sink ~segment_frames:(config t).Config.segment_frames
      ~text:(Wal.to_string (Database.wal t.db));
  if Fault_sink.armed t.txn_sink then
    Fault_sink.crash t.txn_sink ~segment_frames:(config t).Config.segment_frames
      ~text:(Txn_log.to_string t.txn_log);
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

(* Re-install one in-doubt participant transaction from its durable Start
   record: re-acquire the exclusive lock (always free right after
   recovery — at most one in-doubt txn can exist per item, precisely
   because prepare holds the exclusive lock), redo the tentative write,
   re-register with the 2PC machine and restart the termination checks
   with a fresh budget. *)
let reinstall_in_doubt t (e : Txn_log.entry) =
  let txid = e.Txn_log.txid in
  Lock_manager.acquire t.locks ~owner:txid ~key:e.Txn_log.item Lock_manager.Exclusive
    ~timeout:(config t).Config.lock_timeout
    (fenced t (fun lock_result ->
         match lock_result with
         | Error `Timeout ->
             failwith
               (Printf.sprintf "Site.recover: lock unavailable for in-doubt tx%d" txid)
         | Ok () ->
             let txn = Database.begin_txn t.db in
             (match
                Database.add_int txn ~table:stock_table ~key:e.Txn_log.item ~col:"amount"
                  e.Txn_log.delta
              with
             | Ok _ -> ()
             | Error err ->
                 failwith (Printf.sprintf "Site.recover: re-apply tx%d: %s" txid err));
             ignore (Two_phase.Participant.on_prepare t.participant ~txid ~can_apply:true);
             let psp = span_start t ~category:"2pc" "2pc.participant.recovered" in
             span_field_int t psp "txid" txid;
             span_field t psp "item" e.Txn_log.item;
             Hashtbl.replace t.participant_txns txid
               {
                 p_txn = txn;
                 p_coordinator = e.Txn_log.coordinator;
                 p_cohort = e.Txn_log.cohort;
                 p_item = e.Txn_log.item;
                 p_delta = e.Txn_log.delta;
                 p_span = psp;
                 p_queries = 0;
               };
             t.metrics.Update.Metrics.in_doubt_recovered <-
               t.metrics.Update.Metrics.in_doubt_recovered + 1;
             schedule_termination_check t ~txid))

(* A coordination whose decision is logged but whose ack round never
   closed: rebuild the machine in the ack-collection phase and push the
   decision again, a bounded number of rounds (the participants' pull
   side is the unconditional safety net, so giving up the push cannot
   lose the outcome — it only delays stragglers). *)
let install_recovered_coordinator t ~txid ~cohort ~item decision =
  if cohort = [] then Txn_log.record_end t.txn_log ~txid ~at:(now t)
  else begin
    let machine =
      Two_phase.Coordinator.recovered ~txid ~participants:cohort
        ~base:(base_addr_for t ~item) decision
    in
    let coord =
      { machine; finish = (fun _ -> ()); local_txn = None; local_finalized = true }
    in
    Hashtbl.replace t.coordinators txid coord;
    let rec execute actions = List.iter execute_one actions
    and execute_one = function
      | Two_phase.Coordinator.Broadcast_decision d ->
          t.metrics.Update.Metrics.decision_rebroadcasts <-
            t.metrics.Update.Metrics.decision_rebroadcasts + 1;
          if tracing t then
            span_instant t ~category:"2pc" "2pc.rebroadcast"
              ~fields:
                [
                  ("txid", string_of_int txid);
                  ("decision", Format.asprintf "%a" Two_phase.pp_decision d);
                ];
          List.iter
            (fun p ->
              Rpc.call t.shared.rpc ~src:t.addr ~dst:p
                ~timeout:(config t).Config.ack_timeout
                (Protocol.Decision { txid; decision = d })
                (fenced t (fun response ->
                     match response with
                     | Ok (Protocol.Decision_ack _) ->
                         execute (Two_phase.Coordinator.on_ack machine ~from:p)
                     | Ok _ | Error _ -> ())))
            cohort
      | Two_phase.Coordinator.Completed _ ->
          (* the submitting client died with the crashed incarnation;
             [recovered] marks completion as already emitted, so this
             cannot happen — and must never call anyone's continuation *)
          ()
      | Two_phase.Coordinator.Cleanup _ ->
          Txn_log.record_end t.txn_log ~txid ~at:(now t);
          Hashtbl.remove t.coordinators txid
      | Two_phase.Coordinator.Broadcast_prepare -> ()
    in
    let rec round n =
      if Hashtbl.mem t.coordinators txid && not (is_down t) then
        if n >= (config t).Config.rebroadcast_rounds then begin
          (* the pull path takes over *)
          if tracing t then
            span_instant t ~status:Avdb_obs.Span.Warn ~category:"2pc"
              "2pc.rebroadcast_gave_up"
              ~fields:[ ("txid", string_of_int txid); ("rounds", string_of_int n) ]
        end
        else begin
          execute (Two_phase.Coordinator.rebroadcast machine);
          ignore
            (Engine.schedule (engine t) ~delay:(config t).Config.rebroadcast_interval
               (fenced t (fun () -> round (n + 1))))
        end
    in
    round 0
  end

(* Adjudicate one of our own outcome-less coordinations after log damage
   (amnesia): presumed abort is off the table — the outcome record may
   be among what the log lost — so ask the cohort. Any surviving
   decision record wins; otherwise abort is provably consistent (see
   [adjudicate]). The verdict is logged and pushed like any recovered
   decision. *)
let adjudicate_own t (e : Txn_log.entry) =
  let txid = e.Txn_log.txid in
  let fellows = List.filter (fun a -> not (Address.equal a t.addr)) e.Txn_log.cohort in
  adjudicate t ~txid ~fellows
    ~still_wanted:(fun () ->
      match Txn_log.find t.txn_log ~txid with
      | Some { Txn_log.outcome = None; _ } -> true
      | Some _ | None -> false)
    ~decide:(fun d ->
      Txn_log.record_outcome t.txn_log ~txid d ~at:(now t);
      install_recovered_coordinator t ~txid ~cohort:e.Txn_log.cohort ~item:e.Txn_log.item
        d)

(* A prepared participant entry on a quarantined item. The tentative
   write must NOT be redone: the row is untrusted and under repair, and
   the repair snapshot plus its pending-transaction watches carry the
   data. What remains is bookkeeping — learn the outcome and record it,
   so the txid is poisoned against late prepares and fellow askers get a
   real answer instead of an eternal [Peer_prepared]. *)
let resolve_orphan t (e : Txn_log.entry) =
  let txid = e.Txn_log.txid in
  let coordinator = e.Txn_log.coordinator in
  let record d = Txn_log.record_outcome t.txn_log ~txid d ~at:(now t) in
  let unresolved () =
    match Txn_log.find t.txn_log ~txid with
    | Some { Txn_log.outcome = None; _ } -> true
    | Some _ | None -> false
  in
  let adjudicate_fellows () =
    let fellows =
      List.filter
        (fun a -> not (Address.equal a t.addr || Address.equal a coordinator))
        e.Txn_log.cohort
    in
    adjudicate t ~txid ~fellows ~still_wanted:unresolved ~decide:record
  in
  let rec poll attempt =
    if attempt < max_decision_queries && unresolved () && not (is_down t) then
      Rpc.call t.shared.rpc ~src:t.addr ~dst:coordinator
        ~timeout:(config t).Config.rpc_timeout
        (Protocol.Query_decision { txid })
        (fenced t (fun response ->
             match response with
             | Ok (Protocol.Decision_status { status = Protocol.Decided d; _ }) ->
                 record d
             | Ok (Protocol.Decision_status { status = Protocol.Unknown_txn; _ }) ->
                 record Two_phase.Abort
             | Ok (Protocol.Decision_status { status = Protocol.No_record; _ }) ->
                 adjudicate_fellows ()
             | Ok _ | Error _ ->
                 ignore
                   (Engine.schedule (engine t) ~delay:(config t).Config.repair_interval
                      (fenced t (fun () -> poll (attempt + 1))))))
  in
  poll 0

(* Replay the durable protocol log into live 2PC state. Participant-side
   in-doubt entries are re-installed as prepared transactions; our own
   coordinations are closed out: no outcome logged means we crashed
   before deciding, and since the outcome record always precedes the
   Commit broadcast, abort is the only possible verdict (presumed
   abort) — log it and tell the cohort. A logged decision without an
   [End] restarts the ack round. Both presumptions are gated on an
   intact log: under amnesia the entry is adjudicated with the cohort
   instead, and in-doubt entries on quarantined items resolve
   outcome-only. *)
let replay_protocol_log t =
  List.iter
    (fun (e : Txn_log.entry) ->
      (* keep the txid allocator above everything we ever coordinated *)
      if Address.equal e.Txn_log.coordinator t.addr then begin
        let seq = e.Txn_log.txid - (Address.to_int t.addr * 1_000_000) in
        if seq >= t.next_txn_seq then t.next_txn_seq <- seq + 1
      end)
    (Txn_log.entries t.txn_log);
  (* epoch intents draw from the same allocator *)
  List.iter
    (fun (ie : Txn_log.intent_entry) ->
      if Address.equal ie.Txn_log.in_origin t.addr then begin
        let seq = ie.Txn_log.in_txid - (Address.to_int t.addr * 1_000_000) in
        if seq >= t.next_txn_seq then t.next_txn_seq <- seq + 1
      end)
    (Txn_log.intents t.txn_log);
  List.iter
    (fun (e : Txn_log.entry) ->
      let txid = e.Txn_log.txid in
      let undecided how =
        if tracing t then
          span_instant t ~status:Avdb_obs.Span.Warn ~category:"2pc"
            "2pc.coordinator.recovered"
            ~fields:[ ("txid", string_of_int txid); ("outcome", how) ]
      in
      if Address.equal e.Txn_log.coordinator t.addr then begin
        match e.Txn_log.outcome with
        | None when t.amnesia ->
            (* the outcome record may be among what the log lost *)
            undecided "adjudicate";
            adjudicate_own t e
        | None ->
            undecided "presumed_abort";
            Txn_log.record_outcome t.txn_log ~txid Two_phase.Abort ~at:(now t);
            install_recovered_coordinator t ~txid ~cohort:e.Txn_log.cohort
              ~item:e.Txn_log.item Two_phase.Abort
        | Some d when not e.Txn_log.ended ->
            install_recovered_coordinator t ~txid ~cohort:e.Txn_log.cohort
              ~item:e.Txn_log.item d
        | Some _ -> ()
      end
      else if e.Txn_log.outcome = None then begin
        if Hashtbl.mem t.quarantined e.Txn_log.item then resolve_orphan t e
        else reinstall_in_doubt t e
      end)
    (Txn_log.entries t.txn_log)

(* --- corruption-aware recovery and replica repair --- *)

let stock_schema =
  Schema.create
    [
      { Schema.name = "amount"; ty = Value.Tint };
      { Schema.name = "regular"; ty = Value.Tbool };
    ]

let history_schema =
  Schema.create
    [
      { Schema.name = "item"; ty = Value.Tstr };
      { Schema.name = "delta"; ty = Value.Tint };
      { Schema.name = "path"; ty = Value.Tstr };
    ]

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

(* Rebuild replica rows lost with WAL damage from metadata that lives on
   other media and is exact by construction:

   - a regular item's committed row is
       initial + own cumulative sync counter + Σ applied remote counters
     (each counter moves in the same atomic event as its commit);
   - a non-regular item's committed row is
       initial + Σ deltas of protocol-log entries with outcome Commit
     (the outcome record and the local apply are one atomic event) —
     trustworthy only while the protocol log itself lost nothing; under
     amnesia those items are quarantined and repaired remotely instead.

   Rows whose WAL state survived recompute to their current value, so
   running this over the whole interest set is idempotent. Assumes
   autonomous mode: the centralized baseline's write path bypasses the
   sync counters, so its base has no local reconstruction story. *)
let rebuild_lost_rows t ~trust_txn_log =
  if Database.table_opt t.db stock_table = None then
    ignore (Database.create_table t.db ~name:stock_table stock_schema);
  if (config t).Config.record_history && Database.table_opt t.db history_table = None
  then ignore (Database.create_table t.db ~name:history_table history_schema);
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
  List.iter
    (fun product ->
      let item = product.Product.name in
      if interested_in t ~item then begin
        let regular = Product.is_regular product in
        let expect =
          if regular then
            product.Product.initial_amount
            + Delay_sync.cum t.sync ~item
            + Delay_sync.applied_total t.sync ~item
          else if trust_txn_log then
            product.Product.initial_amount
            + Option.value ~default:0
                (Hashtbl.find_opt (Lazy.force committed_by_item) item)
          else begin
            (* untrusted both ways: the item is quarantined and will be
               repaired remotely; any placeholder works, the surviving
               value least surprises *)
            match amount_of t ~item with
            | Some v -> v
            | None -> product.Product.initial_amount
          end
        in
        match amount_of t ~item with
        | Some v when v = expect -> ()
        | Some _ -> (
            match
              Database.set_col txn ~table:stock_table ~key:item ~col:"amount"
                (Value.Int expect)
            with
            | Ok () -> ()
            | Error e -> failwith ("Site.recover rebuild: " ^ e))
        | None -> (
            match
              Database.insert txn ~table:stock_table ~key:item
                [| Value.Int expect; Value.Bool regular |]
            with
            | Ok () -> ()
            | Error e -> failwith ("Site.recover rebuild: " ^ e))
      end)
    (config t).Config.products;
  Database.commit txn

(* Protocol-log data loss taints every item whose correctness depends on
   that log: the non-regular interest set. A lost in-doubt entry means a
   decided Commit could arrive that this site no longer knows how to
   apply, so the rows cannot be trusted even when the WAL survived. *)
let quarantine_non_regular t =
  List.iter
    (fun product ->
      let item = product.Product.name in
      if (not (Product.is_regular product)) && interested_in t ~item then
        Hashtbl.replace t.quarantined item ())
    (config t).Config.products

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

let repair_apply_commit t ~item ~delta =
  let txn = Database.begin_txn t.db in
  match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
  | Ok _ ->
      Database.commit txn;
      record_history t ~item ~delta ~path:"repair"
  | Error e ->
      Database.abort txn;
      failwith ("Site.repair apply: " ^ e)

let rec watch_pending t ~item ~txid ~coordinator ~donor ~delta ~via_donor ~attempt ~k =
  if attempt >= max_repair_attempts then repair_gave_up t ~item "pending_txn"
  else if (not (is_down t)) && Hashtbl.mem t.quarantined item then begin
    let again via_donor =
      ignore
        (Engine.schedule (engine t) ~delay:(config t).Config.repair_interval
           (fenced t (fun () ->
                watch_pending t ~item ~txid ~coordinator ~donor ~delta ~via_donor
                  ~attempt:(attempt + 1) ~k)))
    in
    if via_donor then
      (* the coordinator lost its record of the txid; the donor is a
         surviving cohort member and will eventually hold — or
         adjudicate — the outcome *)
      Rpc.call t.shared.rpc ~src:t.addr ~dst:donor
        ~timeout:(config t).Config.rpc_timeout
        (Protocol.Peer_decision_query { txid })
        (fenced t (fun response ->
             match response with
             | Ok (Protocol.Peer_decision_status { status = Protocol.Peer_decided d; _ })
               ->
                 if d = Two_phase.Commit then repair_apply_commit t ~item ~delta;
                 k ()
             | Ok
                 (Protocol.Peer_decision_status
                   { status = Protocol.Peer_will_refuse; _ }) ->
                 k ()
             | Ok _ | Error _ -> again true))
    else
      Rpc.call t.shared.rpc ~src:t.addr ~dst:coordinator
        ~timeout:(config t).Config.rpc_timeout
        (Protocol.Query_decision { txid })
        (fenced t (fun response ->
             match response with
             | Ok (Protocol.Decision_status { status = Protocol.Decided d; _ }) ->
                 if d = Two_phase.Commit then repair_apply_commit t ~item ~delta;
                 k ()
             | Ok (Protocol.Decision_status { status = Protocol.Unknown_txn; _ }) -> k ()
             | Ok (Protocol.Decision_status { status = Protocol.No_record; _ }) ->
                 again true
             | Ok _ | Error _ -> again false))
  end

let rec repair_item t ~item ~attempt =
  if is_down t || not (Hashtbl.mem t.quarantined item) then ()
  else if attempt >= max_repair_attempts then repair_gave_up t ~item "attempts"
  else begin
    let donors =
      let b = base_addr_for t ~item in
      let others = List.filter (fun a -> not (Address.equal a b)) (peers_for t ~item) in
      if Address.equal b t.addr then others else b :: others
    in
    match donors with
    | [] -> repair_gave_up t ~item "no_donor" (* sole subscriber *)
    | _ ->
        let donor = List.nth donors (attempt mod List.length donors) in
        let retry () =
          ignore
            (Engine.schedule (engine t) ~delay:(config t).Config.repair_interval
               (fenced t (fun () -> repair_item t ~item ~attempt:(attempt + 1))))
        in
        let sp = span_start t ~category:"storage" "storage.repair_fetch" in
        span_field t sp "item" item;
        span_field t sp "donor" (Address.to_string donor);
        Rpc.call t.shared.rpc ~src:t.addr ~dst:donor
          ~timeout:(config t).Config.rpc_timeout ~span:sp
          (Protocol.Join_request { wanted = Some [ item ] })
          (fenced t (fun response ->
               match response with
               | Ok
                   (Protocol.Join_snapshot { rows; sync_state = _; pending; epochs }
                   as resp)
                 -> (
                   t.metrics.Update.Metrics.repair_bytes <-
                     t.metrics.Update.Metrics.repair_bytes
                     + Protocol.wire_size_response resp;
                   span_end t sp;
                   match rows with
                   | [ (_, amount, _) ] ->
                       let txn = Database.begin_txn t.db in
                       (match
                          Database.set_col txn ~table:stock_table ~key:item
                            ~col:"amount" (Value.Int amount)
                        with
                       | Ok () -> Database.commit txn
                       | Error e ->
                           Database.abort txn;
                           failwith ("Site.repair install: " ^ e));
                       (match (Hashtbl.find_opt t.epochs item, epochs) with
                       | Some st, (_, donor_applied) :: _ ->
                           (* installed rows fold every donor seal through
                              [donor_applied]: floor the log there, and — after
                              amnesia, where promises were lost with the log —
                              fence this acceptor out of the next epoch so its
                              forgotten promise cannot be betrayed *)
                           if donor_applied > 0 then
                             Txn_log.record_epoch_floor t.txn_log ~item
                               ~epoch:donor_applied ~at:(now t);
                           st.ei_applied <- Stdlib.max st.ei_applied donor_applied;
                           if t.amnesia then
                             st.ei_fence <- Stdlib.max st.ei_fence (donor_applied + 1);
                           Hashtbl.reset st.ei_stash
                       | _ -> ());
                       let watches =
                         List.filter
                           (fun (_, _, pitem, _) -> String.equal pitem item)
                           pending
                       in
                       if watches = [] then finish_repair t ~item
                       else begin
                         let outstanding = ref (List.length watches) in
                         List.iter
                           (fun (txid, coordinator, _, delta) ->
                             watch_pending t ~item ~txid
                               ~coordinator:(Address.of_int coordinator) ~donor ~delta
                               ~via_donor:false ~attempt:0 ~k:(fun () ->
                                 decr outstanding;
                                 if !outstanding = 0 then finish_repair t ~item))
                           watches
                       end
                   | _ -> retry ())
               | Ok (Protocol.Bad_request _) ->
                   (* the donor's own copy is quarantined: rotate *)
                   span_warn t sp;
                   span_end t sp;
                   retry ()
               | Ok _ | Error _ ->
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
    let cfg = config t in
    let delay =
      Time.of_ms
        (Float.max
           (Time.to_ms cfg.Config.prepare_timeout)
           (Time.to_ms cfg.Config.ack_timeout))
    in
    Hashtbl.iter
      (fun item () ->
        ignore
          (Engine.schedule (engine t) ~delay
             (fenced t (fun () -> repair_item t ~item ~attempt:0))))
      t.quarantined
  end

let recover t =
  (* Restart: committed state only, from the write-ahead log — read back
     through the faultable disk when faults were armed. In-flight
     participant transactions, locks, holds and timers die with the
     process; bump the epoch again so even closures created while down
     (there should be none, but belt and braces) cannot fire. *)
  t.epoch <- t.epoch + 1;
  let wal_report = Fault_sink.take_recovery t.wal_sink in
  let txn_report = Fault_sink.take_recovery t.txn_sink in
  let wal_loss = ref false in
  (match wal_report with
  | None -> t.db <- Database.recover ~name:(Database.name t.db) (Database.wal t.db)
  | Some report ->
      let wal, unreadable =
        match Wal.of_string (String.concat "\n" report.Segmented.payloads) with
        | Ok wal -> (wal, None)
        | Error c -> (Wal.create (), Some c)
      in
      note_storage_damage t ~label:"wal" ?unreadable report;
      wal_loss := unreadable <> None || Segmented.data_loss report;
      t.db <- Database.recover ~name:(Database.name t.db) wal);
  (match txn_report with
  | None -> ()
  | Some report ->
      let log, unreadable =
        match Txn_log.of_string (String.concat "\n" report.Segmented.payloads) with
        | Ok log -> (log, None)
        | Error c -> (Txn_log.create (), Some c)
      in
      note_storage_damage t ~label:"txn-log" ?unreadable report;
      t.txn_log <- log;
      if unreadable <> None || Segmented.data_loss report then begin
        (* Synced protocol records are gone: "no entry" stops implying
           "never happened", forever — later recoveries cannot un-lose
           them. Every non-regular interest item is suspect. *)
        t.amnesia <- true;
        quarantine_non_regular t
      end);
  if !wal_loss then begin
    (* Under amnesia — even from an *earlier* incarnation — the protocol
       log no longer bounds the committed non-regular deltas, so a lost
       WAL row cannot be reconstructed locally: quarantine and repair
       remotely instead. Without amnesia the rebuild is exact. *)
    if t.amnesia then quarantine_non_regular t;
    rebuild_lost_rows t ~trust_txn_log:(not t.amnesia)
  end;
  (* Resume the audit sequence after the recovered rows to keep keys
     unique (history rows are never deleted). *)
  (match Database.table_opt t.db history_table with
  | Some tbl -> t.history_seq <- Table.size tbl
  | None -> ());
  Hashtbl.reset t.participant_txns;
  Hashtbl.reset t.coordinators;
  Two_phase.Participant.reset t.participant;
  t.locks <- Lock_manager.create ~engine:(engine t) ~default_timeout:(config t).Config.lock_timeout ();
  (* Transient per-incarnation state: holds taken by in-flight updates go
     back to available (their owners are gone), background refills restart
     from scratch, and the debounced flush timer is re-armed if committed
     deltas are still waiting to propagate. *)
  Av_table.release_all t.av;
  Hashtbl.reset t.prefetch_in_flight;
  t.sync_flush_scheduled <- false;
  Network.set_down (network t) t.addr false;
  (* Re-install in-doubt 2PC state from the durable protocol log — after
     the network is back up, so the replay can speak to the cohort. *)
  replay_protocol_log t;
  (* Amnesia txid floor: surviving entries no longer bound every txid we
     ever issued, so reserve a fresh range per incarnation instead of
     risking reuse of a lost one. *)
  if t.amnesia then t.next_txn_seq <- max t.next_txn_seq (t.epoch * 1000);
  (* Epoch class: re-derive the applied prefix and re-buffer own unsealed
     intents from the durable log, then restart the pump. *)
  rebuild_epoch_state t;
  schedule_sync_flush t;
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

(* --- construction --- *)

let create shared ~addr ~av_init =
  let config = shared.config in
  let topo = shared.topology in
  let my_index = Address.to_int addr in
  let db = Database.create ~name:(Address.to_string addr) () in
  ignore (Database.create_table db ~name:stock_table stock_schema);
  if config.Config.record_history then
    ignore (Database.create_table db ~name:history_table history_schema);
  let txn = Database.begin_txn db in
  (* Partial replication starts here: only the products this site
     subscribes to get a local row — everything else is neither stored nor
     tracked, so the site's live state is bounded by its interest set. *)
  List.iter
    (fun product ->
      if Topology.interested topo ~site:my_index ~item:product.Product.name then begin
        let row =
          [|
            Value.Int product.Product.initial_amount;
            Value.Bool (Product.is_regular product);
          |]
        in
        match Database.insert txn ~table:stock_table ~key:product.Product.name row with
        | Ok () -> ()
        | Error e -> failwith ("Site.create: " ^ e)
      end)
    config.Config.products;
  Database.commit txn;
  let av = Av_table.create () in
  if config.Config.mode = Config.Autonomous then
    List.iter (fun (item, volume) -> Av_table.define av ~item ~volume) av_init;
  if shared.n_members < 1 then invalid_arg "Site.create: empty cluster";
  let base_addr = Address.of_int 0 in
  let epochs = Hashtbl.create 4 in
  List.iter
    (fun product ->
      let item = product.Product.name in
      if Product.is_epoch product && Topology.interested topo ~site:my_index ~item
      then
        Hashtbl.replace epochs item
          {
            ei_item = item;
            ei_subs = [];
            ei_subs_version = -1;
            ei_applied = 0;
            ei_buffer = Hashtbl.create 8;
            ei_sealed = Hashtbl.create 16;
            ei_stash = Hashtbl.create 4;
            ei_waiters = Hashtbl.create 8;
            ei_acked = Hashtbl.create 4;
            ei_attempts = 0;
            ei_pump = false;
            ei_busy = false;
            ei_fence = 0;
          })
    config.Config.products;
  let t =
    {
      shared;
      addr;
      role = (if Address.equal addr base_addr then Maker else Retailer);
      base_addr;
      db;
      av;
      view = Peer_view.create ();
      sel_state = Strategy.create_state ();
      rng = Rng.split (Engine.rng shared.engine);
      locks =
        Lock_manager.create ~engine:shared.engine
          ~default_timeout:config.Config.lock_timeout ();
      participant = Two_phase.Participant.create ();
      participant_txns = Hashtbl.create 16;
      coordinators = Hashtbl.create 16;
      txn_log = Txn_log.create ();
      wal_sink = Fault_sink.create ();
      txn_sink = Fault_sink.create ();
      quarantined = Hashtbl.create 4;
      amnesia = false;
      metrics = Update.Metrics.create ();
      sync = Delay_sync.create ();
      last_sync_apply = None;
      prefetch_in_flight = Hashtbl.create 16;
      peer_cache = Hashtbl.create 16;
      history_seq = 0;
      sync_flush_scheduled = false;
      next_txn_seq = 0;
      epoch = 0;
      epochs;
      inflight = Hashtbl.create 8;
      next_op_seq = 0;
    }
  in
  Rpc.serve shared.rpc addr
    ~handler:(fun ~src ~span request ~reply ->
      match request with
      | Protocol.Av_request { item; amount; requester_available; sync } ->
          handle_av_request t ~src ~span ~item ~amount ~requester_available ~sync ~reply
      | Protocol.Central_update { item; delta } -> handle_central_update t ~item ~delta ~reply
      | Protocol.Prepare { txid; coordinator; cohort; item; delta } ->
          handle_prepare t ~span ~txid ~coordinator ~cohort ~item ~delta ~reply
      | Protocol.Decision { txid; decision } -> handle_decision t ~txid ~decision ~reply
      | Protocol.Read_request { item } ->
          let amount =
            if Hashtbl.mem t.quarantined item then
              (* quarantined replicas answer as if they held nothing:
                 availability lost, consistency kept *)
              None
            else if Mutation.enabled Mutation.Stale_reads then
              (* Mutation: serve authoritative reads from a stale snapshot
                 (the initial catalogue) instead of the live replica. *)
              List.find_map
                (fun p ->
                  if String.equal p.Product.name item then
                    Some p.Product.initial_amount
                  else None)
                config.Config.products
            else amount_of t ~item
          in
          reply (Protocol.Read_value { amount })
      | Protocol.Query_decision { txid } -> handle_query_decision t ~txid ~reply
      | Protocol.Peer_decision_query { txid } -> handle_peer_decision_query t ~txid ~reply
      | Protocol.Join_request { wanted } -> handle_join t ~wanted ~reply
      | Protocol.Epoch_intent { item; txid; origin; delta } ->
          handle_epoch_intent t ~item ~txid ~origin ~delta ~reply
      | Protocol.Epoch_propose { item; epoch; ballot; seal } ->
          handle_epoch_propose t ~src ~item ~epoch ~ballot ~seal ~reply
      | Protocol.Epoch_commit { item; epoch; seal } ->
          handle_epoch_commit t ~src ~item ~epoch ~seal ~reply
      | Protocol.Epoch_pull { item; from_epoch } ->
          handle_epoch_pull t ~item ~from_epoch ~reply
      | Protocol.Epoch_collect { item; epoch; ballot } ->
          handle_epoch_collect t ~item ~epoch ~ballot ~reply)
    ~notice:(fun ~src notice ->
      match notice with
      | Protocol.Sync_counters { counters; av_info; ack } ->
          handle_sync t ~src ~counters ~av_info ~ack)
    ();
  t
