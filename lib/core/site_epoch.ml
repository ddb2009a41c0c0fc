(* Epoch-quorum commit, the third update class. Writers log intents
   durably and hand them to a deterministic sequencer that rotates over
   the item's subscriber set; the sequencer totally orders the buffered
   intents into one seal per epoch and decides it with a single-decree
   quorum round (ballot = escalation rank, so candidates at different
   ranks never share a ballot). Subscribers apply sealed epochs strictly
   in order, pulling any gap, so every replica applies the same prefix —
   no per-transaction cross-site lock round-trip. Owns the per-item epoch
   state. *)

open Avdb_net
open Avdb_store
open Avdb_txn
open Site_ctx

let epoch_state t ~item = Hashtbl.find_opt t.epochs item

(* Subscribers in topology order, self included; memoised against the
   topology version like [peers_for]. *)
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

(* The value a ballot-0 proposal carries. Value fixation: once this
   candidate durably accepted a value for the epoch it may never propose
   a different one at the same ballot. *)
let ballot0_seal t st ~epoch =
  match Txn_log.epoch_accept t.txn_log ~item:st.ei_item ~epoch with
  | Some (_, s) -> s
  | None -> buffered_seal st

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
  let h = row t (stored t ~item) in
  let txn = Database.begin_txn t.db in
  List.iter
    (fun (i : Txn_log.intent) ->
      (* Mutation: the proposer applies its own seal twice over. *)
      let d =
        if proposer && Mutation.enabled Mutation.Epoch_double_seal then
          2 * i.Txn_log.i_delta
        else i.Txn_log.i_delta
      in
      ignore (Database.add_int_handle txn h d))
    applied_intents;
  Database.commit txn;
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

(* Fetch every seal [from] holds past our applied prefix, then [k]. *)
let pull_seals t st ~from k =
  Rpc.call t.shared.rpc ~src:t.addr ~dst:from ~timeout:(config t).Config.rpc_timeout
    (Protocol.Epoch_pull { item = st.ei_item; from_epoch = st.ei_applied })
    (fenced t (fun response ->
         (match response with
         | Ok (Protocol.Epoch_seals { seals; _ }) -> apply_pulled_seals t st seals
         | Ok _ | Error _ -> ());
         k ()))

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
    after t ~delay:Protocol.epoch_interval (fun () ->
        st.ei_pump <- false;
        pump_step t st;
        ensure_pump t st)
  end

and pump_step t st =
  if (not (is_down t)) && (not (is_quarantined t ~item:st.ei_item)) && not st.ei_busy
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
        if ballot = 0 then run_propose t st ~epoch ~ballot ~seal:(ballot0_seal t st ~epoch)
        else run_collect t st ~epoch ~ballot
      else resend_intents t st cand
    end
  end

(* One quorum round over the item's other subscribers: this site's own
   durable record counts as the first grant, [granted] judges each reply,
   and [won] runs once a majority is reached. A round that ends without
   one frees the item for the next pump tick. *)
and quorum_round t st ~request ~granted ~won =
  let subs = epoch_subs t st in
  let needed = epoch_quorum subs in
  let others = List.filter (fun a -> not (Address.equal a t.addr)) subs in
  let total = List.length others in
  let grants = ref 1 and replies = ref 0 and closed = ref false in
  if !grants >= needed then won ()
  else
    List.iter
      (fun peer ->
        Rpc.call t.shared.rpc ~src:t.addr ~dst:peer ~timeout:(config t).Config.rpc_timeout
          request
          (fenced t (fun response ->
               incr replies;
               if granted peer response then incr grants;
               if !grants >= needed && not !closed then begin
                 closed := true;
                 won ()
               end
               else if !replies = total && not !closed then begin
                 closed := true;
                 st.ei_busy <- false;
                 ensure_pump t st
               end)))
      others

(* Phase 2 for (item, epoch) at [ballot]: our own durable accept is both
   our vote and the value the ballot is forever bound to. *)
and run_propose t st ~epoch ~ballot ~seal =
  let item = st.ei_item in
  st.ei_busy <- true;
  Txn_log.record_epoch_accept t.txn_log ~item ~epoch ~ballot ~seal ~at:(now t);
  quorum_round t st
    ~request:(Protocol.Epoch_propose { item; epoch; ballot; seal })
    ~granted:(fun _ -> function
      | Ok (Protocol.Epoch_vote { accepted; _ }) -> accepted
      | Ok _ | Error _ -> false)
    ~won:(fun () ->
      st.ei_busy <- false;
      if st.ei_applied + 1 = epoch then begin
        apply_seal t st ~epoch ~seal ~proposer:true;
        drain_stash t st;
        broadcast_commits t st
      end;
      ensure_pump t st)

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
  let sealed_found = ref (Txn_log.epoch_seal t.txn_log ~item ~epoch) in
  let best = ref (Txn_log.epoch_accept t.txn_log ~item ~epoch) in
  let ahead = ref None in
  quorum_round t st
    ~request:(Protocol.Epoch_collect { item; epoch; ballot })
    ~granted:(fun peer -> function
      | Ok (Protocol.Epoch_state { promised; sealed; accepted; applied_epoch; _ }) ->
          (match sealed with
          | Some s -> sealed_found := Some s
          | None -> if applied_epoch >= epoch then ahead := Some peer);
          (match accepted with
          | Some (b, s) -> (
              match !best with
              | Some (b', _) when b' >= b -> ()
              | Some _ | None -> best := Some (b, s))
          | None -> ());
          promised <= ballot
      | Ok _ | Error _ -> false)
    ~won:(fun () ->
      match (!sealed_found, !ahead) with
      | Some seal, _ ->
          st.ei_busy <- false;
          if st.ei_applied + 1 = epoch then begin
            apply_seal t st ~epoch ~seal ~proposer:false;
            drain_stash t st
          end;
          broadcast_commits t st;
          ensure_pump t st
      | None, Some peer ->
          (* a peer already applied this epoch but its seal sits below
             its snapshot floor: catch up by pulling instead *)
          st.ei_busy <- false;
          pull_seals t st ~from:peer (fun () -> ensure_pump t st)
      | None, None ->
          let seal = match !best with Some (_, s) -> s | None -> buffered_seal st in
          run_propose t st ~epoch ~ballot ~seal)

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
      let from = List.nth others (st.ei_attempts mod List.length others) in
      pull_seals t st ~from ignore

(* Close the open epoch immediately once a full batch is buffered, instead
   of waiting out the pump tick. *)
let maybe_close t st =
  if
    (not st.ei_busy) && (not (is_down t))
    && (not (is_quarantined t ~item:st.ei_item))
    && Hashtbl.length st.ei_buffer >= (config t).Config.epoch_batch
  then begin
    let epoch = st.ei_applied + 1 in
    if Address.equal (epoch_candidate t st ~epoch ~ballot:0) t.addr then
      run_propose t st ~epoch ~ballot:0 ~seal:(ballot0_seal t st ~epoch)
  end

(* Writer path: durable intent, then asynchronous replication — the
   client's continuation fires when a seal containing the txid is applied
   locally. No cross-site round-trip on the submission path. *)
let epoch_update t st ~delta ~finish =
  let item = st.ei_item in
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
        if not (is_quarantined t ~item) then begin
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
         not (is_quarantined t ~item:ie.Txn_log.in_item))
       (Txn_log.unsealed_intents t.txn_log))

(* --- epoch request handlers (server side) --- *)

(* The guard every epoch handler shares: [Some st] when [item] is
   epoch-class here and, unless [quarantine_ok], its replica is trusted;
   otherwise the request is answered [Bad_request] and the result is
   [None]. *)
let guard ?(quarantine_ok = false) t ~item ~reply =
  match epoch_state t ~item with
  | None ->
      reply (Protocol.Bad_request "not an epoch item");
      None
  | Some _ when (not quarantine_ok) && is_quarantined t ~item ->
      reply (Protocol.Bad_request "item quarantined");
      None
  | found -> found

let handle_epoch_intent t ~item ~txid ~origin ~delta ~reply =
  match guard t ~item ~reply with
  | None -> ()
  | Some st ->
      if Hashtbl.mem st.ei_sealed txid then
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
  match guard t ~item ~reply with
  | None -> ()
  | Some st ->
      if epoch <= st.ei_applied then begin
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
  match guard t ~item ~reply with
  | None -> ()
  | Some st ->
      if epoch = st.ei_applied + 1 then begin
        apply_seal t st ~epoch ~seal ~proposer:false;
        drain_stash t st
      end
      else if epoch > st.ei_applied then begin
        if not (Hashtbl.mem st.ei_stash epoch) then Hashtbl.replace st.ei_stash epoch seal;
        pull_seals t st ~from:src ignore
      end;
      reply (Protocol.Epoch_commit_ack { item; epoch; applied_epoch = st.ei_applied });
      ensure_pump t st

let handle_epoch_pull t ~item ~from_epoch ~reply =
  match guard ~quarantine_ok:true t ~item ~reply with
  | None -> ()
  | Some _ ->
      let seals =
        List.filter_map
          (fun (it, e, seal) ->
            if String.equal it item && e > from_epoch then Some (e, seal) else None)
          (Txn_log.epoch_seals t.txn_log)
      in
      reply (Protocol.Epoch_seals { item; seals })

let handle_epoch_collect t ~item ~epoch ~ballot ~reply =
  match guard t ~item ~reply with
  | None -> ()
  | Some st ->
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
             promised = (if fenced_off then max_int else epoch_promised t st ~epoch);
             sealed = Txn_log.epoch_seal t.txn_log ~item ~epoch;
             accepted = Txn_log.epoch_accept t.txn_log ~item ~epoch;
             applied_epoch = st.ei_applied;
           })

(* --- snapshots and recovery --- *)

(* Installed snapshot rows fold every donor seal through [applied]: floor
   the log there so it never re-applies them. A join records the floor
   only when it moves the applied prefix; a repair always does, drops
   seals stashed against the replaced row, and — after amnesia, where
   promises were lost with the log — fences this acceptor out of the next
   epoch so its forgotten promise cannot be betrayed. *)
let adopt_floor t ~item ~applied ~repair =
  match epoch_state t ~item with
  | None -> ()
  | Some st ->
      if applied > (if repair then 0 else st.ei_applied) then
        Txn_log.record_epoch_floor t.txn_log ~item ~epoch:applied ~at:(now t);
      st.ei_applied <- Stdlib.max st.ei_applied applied;
      if repair then begin
        if t.amnesia then st.ei_fence <- Stdlib.max st.ei_fence (applied + 1);
        Hashtbl.reset st.ei_stash
      end

(* Rebuild the in-memory epoch state from the durable log: the applied
   prefix from contiguous seal records (above any snapshot floor), the
   dedup set from seal contents, and the writer's own unsealed intents
   back into the buffer so the pump re-sends them. *)
let rebuild t =
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
