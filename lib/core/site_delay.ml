(* Delay Update (the paper's AV-defined path): lazy sync, sender and
   receiver; autonomous AV circulation and prefetch; single and batched
   Delay updates. Owns the AV table, the peer view, the sync state, the
   records' prefetch flags and the flush-timer flag. *)

open Avdb_sim
open Avdb_net
open Avdb_store
open Avdb_av
open Site_ctx

(* AV accounting the caller has already authorised: a failure is a bug. *)
let av_ok what = function
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Site %s: %s" what e)

(* --- lazy sync --- *)

(* The notice's [av_info] entries that no counter resolved, observed by
   name. *)
let rec observe_named t ~src = function
  | [] -> ()
  | (item, volume) :: rest ->
      Peer_view.observe t.view ~site:src ~item ~volume ~at:(now t);
      observe_named t ~src rest

(* One notice's counters in flight through [receive]. *)
type receipt = {
  r_src : Address.t;
  r_origin : int;
  r_peer : Delay_sync.peer;  (* the origin's entry *)
  r_lossy : bool;  (* [Mutation.Lossy_sync]: stamp fresh counters, apply none *)
  mutable r_txn : Database.txn option;  (* begun at the first fresh counter applied *)
  mutable r_fresh : int;  (* fresh counters met *)
  mutable r_high : int;  (* the highest version met *)
}

let receipt_txn t r =
  match r.r_txn with
  | Some txn -> txn
  | None ->
      let txn = Database.begin_txn t.db in
      r.r_txn <- Some txn;
      txn

(* Receiver side, shared by dedicated notices and payloads piggybacked on
   AV traffic: apply only counters stamped newer than the last one applied
   from that origin for the item. Versions are strictly monotone per
   (origin, item), so losses, replays and reorderings all resolve to
   "apply the cumulative difference once, in stamp order".

   One pass over the name-sorted counters finds each item once, as its
   record. The counter's freshness and delta come from the record's
   stamps, the delta is added through its row handle, and the [av_info]
   entry riding with the counter is observed through its peer-view entry:
   the sender's [Delay_sync.payloads] builds [av_info] from the same
   counters, so its entries come in counter order. Each fresh counter's
   stamp advances on the way back up, once the batch has committed at the
   bottom; [receive] returns whether it did. A fresh counter on an item
   with no row here aborts the whole batch. The origin's high-water mark,
   on its entry, is raised once, to the highest version in the batch: a
   stale counter is stamped at or below it already. *)
let rec receive t r counters av_info =
  match counters with
  | [] ->
      observe_named t ~src:r.r_src av_info;
      (match r.r_txn with
      | None -> ()
      | Some txn ->
          Database.commit txn;
          t.last_sync_apply <- Some (now t);
          if tracing t then
            span_instant t ~category:"sync" "sync.apply"
              ~fields:
                [
                  ("from", Address.to_string r.r_src); ("items", string_of_int r.r_fresh);
                ]);
      Delay_sync.raise_high r.r_peer r.r_high;
      true
  | (item, version, cum) :: rest -> (
      r.r_high <- Int.max r.r_high version;
      match stored t ~item with
      | s ->
          let av_info =
            match av_info with
            | (i, volume) :: more when String.equal i item ->
                Peer_view.observe_entry (view_entry t s) ~site:r.r_src ~volume ~at:(now t);
                more
            | _ -> av_info
          in
          let st = Delay_sync.stamp s.s_stamps ~origin:r.r_origin in
          if version <= Delay_sync.stamp_version st then receive t r rest av_info
          else begin
            r.r_fresh <- r.r_fresh + 1;
            (* Mutation: a lossy counter — advance the stamps as if the
               delta were applied but drop the data. Later counters diff
               against the stamped cum, so the volume is permanently lost
               and replicas never converge. *)
            if not r.r_lossy then
              ignore
                (Database.add_int_handle (receipt_txn t r) (row t s)
                   (cum - Delay_sync.stamp_cum st));
            receive t r rest av_info
            && begin
                 s.s_stamps <-
                   Delay_sync.restamp s.s_stamps st ~origin:r.r_origin ~version ~cum;
                 true
               end
          end
      | exception Not_found ->
          let av_info =
            match av_info with
            | (i, volume) :: more when String.equal i item ->
                Peer_view.observe t.view ~site:r.r_src ~item ~volume ~at:(now t);
                more
            | _ -> av_info
          in
          if
            r.r_lossy
            || version <= Delay_sync.applied_version (stamps_of t ~item) ~origin:r.r_origin
          then receive t r rest av_info
          else begin
            Database.abort (receipt_txn t r);
            observe_named t ~src:r.r_src av_info;
            false
          end)

(* [p] is the origin's entry. *)
let receive_from t p ~src ~av_info counters =
  match counters with
  | [] -> observe_named t ~src av_info
  | _ :: _ ->
      ignore
        (receive t
           {
             r_src = src;
             r_origin = Address.to_int src;
             r_peer = p;
             r_lossy = Mutation.enabled Mutation.Lossy_sync;
             r_txn = None;
             r_fresh = 0;
             r_high = 0;
           }
           counters av_info)

(* Counters piggybacked on AV traffic: the origin's entry is found only
   when there are some. *)
let apply_sync_counters t ~src ~av_info counters =
  if not (is_down t) then
    match counters with
    | [] -> observe_named t ~src av_info
    | _ :: _ ->
        receive_from t (Delay_sync.peer t.sync ~site:(Address.to_int src)) ~src ~av_info counters

(* One notice to [p], from [Delay_sync.payloads]: a top-level function, so
   that a flush allocates no closure for it. Each notice acknowledges the
   receiver's own counters, the one entry of this site's applied state
   the receiver reads. *)
let send_notice t p counters av_info =
  Rpc.notify t.shared.rpc ~src:t.addr ~dst:(Delay_sync.peer_address p)
    (Protocol.Sync_counters { counters; av_info; ack = Delay_sync.peer_high p })

let flush_sync ?(force = false) t =
  (* A peer is notified only when it has news: a counter on its items
     changed since the last notice sent to it and after its ack. The
     notice then carries every counter it has not acknowledged (not just
     the news), so a receiver that missed earlier notices catches up from
     the next one it gets. Counters a peer acknowledged — through an
     AV-grant reply or a reverse-direction notice's ack — are omitted.
     With [Config.sync_fanout] set, only that many peers are considered
     per flush, rotating round-robin; the cumulative counters make the
     rotation safe because whichever flush finally reaches a peer carries
     everything it missed. [force] broadcasts everything to everyone:
     convergence must not depend on acks, sent marks or rotation
     position. *)
  if (not (is_down t)) && Delay_sync.count t.sync > 0 then begin
    (* The audience: every peer under full replication; under partial
       replication only the union of the counters' items' subscribers — a
       forced convergence flush included, so nothing here is O(N) per
       event unless the interest sets themselves are. Both are cached, so
       a flush in which no target has news allocates nothing. *)
    let audience = Delay_sync.audience t.sync (topology t) ~self:(site_index t) in
    let targets =
      Delay_sync.start_flush t.sync ~force ~fanout:(config t).Config.sync_fanout audience
    in
    (* Under partial replication a counter goes only to peers that
       subscribe to its item: they alone have a row to apply it to. *)
    if Delay_sync.payloads t.sync ~force (topology t) targets t send_notice then begin
      t.metrics.Update.Metrics.sync_batches_sent <-
        t.metrics.Update.Metrics.sync_batches_sent + 1;
      if tracing t then
        span_instant t ~category:"sync" "sync.flush"
          ~fields:[ ("items", string_of_int (Delay_sync.count t.sync)) ]
    end
  end

(* Stamp a committed local delta on the item's sync counter, which the
   item's first change makes, with the record's AV entry, and the record
   keeps from then on. *)
let queue_sync t s ~delta =
  if s.s_counter == Delay_sync.no_counter then
    s.s_counter <- Delay_sync.make_counter ~item:s.s_item ~av:s.s_av;
  Delay_sync.queue t.sync s.s_counter ~delta

(* Apply a committed local delta to the replicated stock value and queue it
   for lazy propagation. Only called after AV accounting has authorised the
   delta, so a failure here is a bug, not an input error. *)
let rec apply_local_delta t s ~delta =
  (match Database.apply_int_handle t.db (row t s) delta with
  | (_ : int) -> ()
  | exception Invalid_argument e ->
      failwith (Printf.sprintf "Site.apply_local_delta %s: %s" s.s_item e)
  | exception Not_found ->
      failwith (Printf.sprintf "Site.apply_local_delta %s: no stock row" s.s_item));
  queue_sync t s ~delta;
  schedule_sync_flush t

(* Lazy propagation is debounced rather than a free-running timer: the
   first delta after a quiet period arms one flush event [sync_interval]
   later. A drained event queue therefore means true quiescence. *)
and schedule_sync_flush t =
  match (config t).Config.sync_interval with
  | None -> ()
  | Some interval ->
      if (not t.sync_flush_scheduled) && Delay_sync.owes_flush t.sync then begin
        t.sync_flush_scheduled <- true;
        after t ~delay:interval (fun () ->
            t.sync_flush_scheduled <- false;
            flush_sync t;
            (* Keep the timer alive while a fanout rotation still owes
               peers their notice. *)
            schedule_sync_flush t)
      end

let handle_sync t ~src ~counters ~av_info ~ack =
  if not (is_down t) then begin
    (* The sender's entry, found once for its ack and its counters. The
       ack is its cumulative ack of OUR counters: it holds everything of
       ours up to that version, so our later flushes to it shrink to the
       true backlog. *)
    let p = Delay_sync.peer t.sync ~site:(Address.to_int src) in
    Delay_sync.note_conveyed p ~upto:ack;
    receive_from t p ~src ~av_info counters
  end

(* A join snapshot's counters, already folded into its rows: later
   notices apply only what the snapshot missed. Each stamp goes to its
   item's record; the origin's high-water mark rises either way. *)
let seed_sync t sync_state =
  List.iter
    (fun (origin, item, version, cum) ->
      (match stored t ~item with
      | s ->
          s.s_stamps <-
            Delay_sync.restamp s.s_stamps (Delay_sync.stamp s.s_stamps ~origin) ~origin ~version
              ~cum
      | exception Not_found -> ());
      Delay_sync.raise_high (Delay_sync.peer t.sync ~site:origin) version)
    sync_state

(* --- AV circulation: the donor's side --- *)

(* The donor's available AV across items, piggybacked on grants so one
   reply warms the requester's whole selection cache. Zero levels are
   included: learning a peer ran dry is exactly what steers selection
   away from it. *)
let av_levels_snapshot t =
  Array.fold_right
    (fun av levels -> (Av_table.entry_item av, Av_table.entry_available av) :: levels)
    (Lazy.force t.av_levels) []

(* Sync counters to piggyback on an AV request or grant towards [peer],
   paired with the sequence number the payload covers. The payload is the
   peer's whole backlog, so the reply to a request lets the requester mark
   everything up to that number conveyed. *)
let sync_piggyback_for t peer =
  let payload = Delay_sync.payload t.sync (topology t) peer in
  (payload, Delay_sync.seq t.sync)

(* The donor reaches the item's AV through its record, found once; an item
   it does not store has no entry and grants nothing. *)
let handle_av_request t ~src ~span ~item ~amount ~requester_available ~sync ~reply =
  Peer_view.observe t.view ~site:src ~item ~volume:requester_available ~at:(now t);
  apply_sync_counters t ~src ~av_info:[] sync;
  let av = match stored t ~item with s -> s.s_av | exception Not_found -> Av_table.no_entry in
  let available = Av_table.entry_available av in
  let granting = (config t).Config.strategy.Strategy.granting in
  let granted = Strategy.Granting.amount granting ~available ~requested:amount in
  let granted =
    if granted = 0 then 0
    else
      match Av_table.entry_withdraw av granted with
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
         donor_available = Av_table.entry_available av;
         av_levels = av_levels_snapshot t;
         (* Unacknowledged piggyback: the requester's version checks make
            a replayed reply harmless, and its conveyed-tracking is never
            advanced by it. *)
         sync = fst (sync_piggyback_for t src);
       })

(* --- AV circulation: the requester's side --- *)

(* The selecting function over the item's subscribers. Hierarchical AV
   circulation: the cold-cache fallback target is this site's parent in
   the item's subscriber tree, so requests climb toward the base instead
   of all N subscribers hammering it directly. *)
let select_donor t s ~exclude =
  let item = s.s_item in
  Strategy.select (config t).Config.strategy ~rng:t.rng ~state:t.sel_state ~self:t.addr
    ~peers:(peers_for t s)
    ~fallback:
      (Option.map Address.of_int (Topology.av_parent (topology t) ~site:(site_index t) ~item))
    ~view:t.view ~item ~exclude

let request_av t ~span ~donor s ~amount ~sync k =
  Rpc.call t.shared.rpc ~src:t.addr ~dst:donor ~timeout:(config t).Config.rpc_timeout
    ~retry:(retry_policy t) ~span
    (Protocol.Av_request
       {
         item = s.s_item;
         amount;
         requester_available = Av_table.entry_available s.s_av;
         sync;
       })
    k

(* One grant reply, on demand or prefetch. It acknowledges the request's
   piggyback: counters up to [upto] reached [donor], so later flushes can
   omit them. It carries the donor's own counters and its AV levels for
   every item, and [granted] lands in the stored item's available pool. *)
let absorb_grant t ~donor s ~upto ~granted ~donor_available ~av_levels ~sync =
  Delay_sync.note_conveyed (Delay_sync.peer t.sync ~site:(Address.to_int donor)) ~upto;
  apply_sync_counters t ~src:donor ~av_info:[] sync;
  List.iter
    (fun (item, volume) -> Peer_view.observe t.view ~site:donor ~item ~volume ~at:(now t))
    av_levels;
  Peer_view.observe t.view ~site:donor ~item:s.s_item ~volume:donor_available ~at:(now t);
  if granted > 0 then begin
    t.metrics.Update.Metrics.av_volume_received <-
      t.metrics.Update.Metrics.av_volume_received + granted;
    av_ok "grant deposit" (Av_table.entry_deposit s.s_av granted)
  end

(* Autonomous AV circulation (an extension of the paper's §3.4): when a
   Delay Update leaves an item's available AV below the configured low
   watermark, refill in the background from one peer, aiming at twice the
   watermark. One in-flight refill per item, flagged on its record;
   failures are silent (the foreground path still works on demand). *)
let rec maybe_prefetch t s =
  match (config t).Config.prefetch_low with
  | None -> ()
  | Some low ->
      let item = s.s_item in
      if
        (not (is_down t))
        && (not s.s_refill)
        && s.s_av != Av_table.no_entry
        && Av_table.entry_available s.s_av < low
      then begin
        match select_donor t s ~exclude:(Address.Set.singleton t.addr) with
        | None -> ()
        | Some donor ->
            s.s_refill <- true;
            t.metrics.Update.Metrics.prefetch_requests <-
              t.metrics.Update.Metrics.prefetch_requests + 1;
            let want = (2 * low) - Av_table.entry_available s.s_av in
            let sp = span_start t ~category:"av" "av.prefetch" in
            span_field t sp "item" item;
            span_field_int t sp "want" want;
            let sync, upto = sync_piggyback_for t donor in
            request_av t ~span:sp ~donor s ~amount:want ~sync
              (fenced t (fun response ->
                s.s_refill <- false;
                match response with
                | Ok (Protocol.Av_grant { granted; donor_available; av_levels; sync }) ->
                    absorb_grant t ~donor s ~upto ~granted ~donor_available ~av_levels ~sync;
                    span_field_int t sp "granted" granted;
                    span_end t sp;
                    if granted > 0 then maybe_prefetch t s
                | Ok _ | Error _ ->
                    span_warn t sp;
                    span_end t sp))
      end

(* Acquire [need] units of AV on the stored item [s], which has AV,
   leaving exactly [need] held on success. A local hold goes through the
   entry, and [parent] is not optional, so it allocates no [Some]. On
   shortage, holds everything local and circulates AV from peers (the
   selecting + deciding functions, by name), one correspondence per peer
   asked; surplus from a final over-grant stays available locally
   ("remaining AV is stored at the local AV table"). On failure every
   volume gathered is released back to available - nothing is lost, and
   what peers sent stays at this site for future updates. *)
let acquire_av t ~parent s ~need k =
  let item = s.s_item in
  if need < 0 then invalid_arg "Site.acquire_av: negative need";
  if need = 0 then k (Ok 0)
  else if Av_table.entry_available s.s_av >= need then begin
    av_ok "acquire_av hold" (Av_table.entry_hold s.s_av need);
    k (Ok 0)
  end
  else begin
    (* Only the shortage path gets a span: a locally-satisfied hold is not
       an acquisition, and the quiet case would swamp the trace. *)
    t.metrics.Update.Metrics.av_shortages <- t.metrics.Update.Metrics.av_shortages + 1;
    let sp = span_start t ~parent ~category:"av" "av.acquire" in
    span_field t sp "item" item;
    span_field_int t sp "need" need;
    let acquired = ref (Av_table.entry_hold_all s.s_av) in
    let tried = ref (Address.Set.singleton t.addr) in
    let rounds = ref 0 in
    let give_up reason =
      av_ok "acquire_av release" (Av_table.entry_release s.s_av !acquired);
      if tracing t then
        span_field t sp "reason" (Format.asprintf "%a" Update.pp_reason reason);
      span_warn t sp;
      span_end t sp;
      k (Error reason)
    in
    let rec step () =
      if is_down t then give_up Update.Unreachable
      else if !acquired >= need then begin
        av_ok "acquire_av release surplus" (Av_table.entry_release s.s_av (!acquired - need));
        span_field_int t sp "rounds" !rounds;
        span_end t sp;
        k (Ok !rounds)
      end
      else begin
        match select_donor t s ~exclude:!tried with
        | None -> give_up Update.Av_exhausted
        | Some donor ->
            tried := Address.Set.add donor !tried;
            incr rounds;
            t.metrics.Update.Metrics.av_requests_sent <-
              t.metrics.Update.Metrics.av_requests_sent + 1;
            let sync, upto = sync_piggyback_for t donor in
            let asked_at = now t in
            request_av t ~span:sp ~donor s ~amount:(need - !acquired) ~sync
              (fenced t (fun response ->
                (match response with
                | Ok (Protocol.Av_grant { granted; donor_available; av_levels; sync }) ->
                    Avdb_metrics.Sketch.add t.metrics.Update.Metrics.grant_latency
                      (Time.to_ms (Time.diff (now t) asked_at));
                    absorb_grant t ~donor s ~upto ~granted ~donor_available ~av_levels ~sync;
                    if granted > 0 then begin
                      (* Mutation: credit the grant twice — volume conjured
                         out of thin air; exact conservation must convict. *)
                      if Mutation.enabled Mutation.Double_deposit then
                        av_ok "acquire_av double deposit" (Av_table.entry_deposit s.s_av granted);
                      av_ok "acquire_av hold grant" (Av_table.entry_hold s.s_av granted);
                      acquired := !acquired + granted
                    end
                | Ok _ | Error _ -> ());
                step ()))
      end
    in
    step ()
  end

(* --- Delay Update (client side) --- *)

(* [s] is a stored item with AV, as the checking function found it. *)
let delay_update t s ~delta ~finish =
  let item = s.s_item in
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
    av_ok "delay_update mint" (Av_table.entry_mint s.s_av delta);
    apply_local_delta t s ~delta;
    finish (Update.Applied Update.Local)
  end
  else begin
    let need = -delta in
    (* The continuation reads the item and the delta off [s] and [need]
       instead of capturing them: one closure word fewer per update. *)
    acquire_av t ~parent:root s ~need (function
      | Error reason -> finish (Update.Rejected reason)
      | Ok rounds ->
          apply_local_delta t s ~delta:(-need);
          av_ok "delay_update consume" (Av_table.entry_consume s.s_av need);
          maybe_prefetch t s;
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
  let finish outcome = finish_in t root finish outcome in
  (* Each item with its record: the checking function has found every
     item stored here and regular. *)
  let coalesced =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (item, delta) ->
        Hashtbl.replace tbl item (delta + Option.value ~default:0 (Hashtbl.find_opt tbl item)))
      deltas;
    Hashtbl.fold (fun item delta acc -> (item, delta) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (item, delta) ->
           let s = stored t ~item in
           if s.s_av == Av_table.no_entry then invalid_arg ("Site.batch_update: no AV on " ^ item)
           else (s, delta))
  in
  let apply_all () =
    let txn = Database.begin_txn t.db in
    List.iter
      (fun (s, delta) ->
        match Database.add_int_handle txn (row t s) delta with
        | (_ : int) -> ()
        | exception Invalid_argument e -> failwith ("Site.batch_update apply: " ^ e))
      coalesced;
    Database.commit txn;
    List.iter
      (fun (s, delta) ->
        queue_sync t s ~delta;
        if delta >= 0 then av_ok "batch_update mint" (Av_table.entry_mint s.s_av delta)
        else av_ok "batch_update consume" (Av_table.entry_consume s.s_av (-delta)))
      coalesced;
    schedule_sync_flush t;
    List.iter (fun (s, _) -> maybe_prefetch t s) coalesced
  in
  let rec acquire_loop pending held total_rounds =
    match pending with
    | [] ->
        apply_all ();
        finish
          (Update.Applied
             (if total_rounds = 0 then Update.Local else Update.With_transfer total_rounds))
    | (s, delta) :: rest ->
        if delta >= 0 then acquire_loop rest held total_rounds
        else begin
          let need = -delta in
          acquire_av t ~parent:root s ~need (function
            | Ok rounds -> acquire_loop rest ((s, need) :: held) (total_rounds + rounds)
            | Error reason ->
                List.iter
                  (fun (s, need) ->
                    av_ok "batch_update release" (Av_table.entry_release s.s_av need))
                  held;
                finish (Update.Rejected reason))
        end
  in
  acquire_loop coalesced [] 0

(* Per-incarnation state dies with a crash: holds taken by in-flight
   updates go back to available (their owners are gone), background
   refills restart from scratch, and the debounced flush timer is re-armed
   by [schedule_sync_flush] once the site is back. *)
let reset t =
  Av_table.release_all t.av;
  Hashtbl.iter (fun _ s -> s.s_refill <- false) t.items;
  t.sync_flush_scheduled <- false
