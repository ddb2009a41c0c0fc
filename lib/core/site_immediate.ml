(* Immediate Update (the paper's primary-copy 2PC for items without AV):
   coordinator and participant, the cooperative termination protocol,
   full-cohort adjudication, and the recovery half of 2PC — in-doubt
   reinstall, recovered coordinators and protocol-log replay. Owns the
   lock manager, the participant machine and the live coordinations. *)

open Avdb_sim
open Avdb_net
open Avdb_store
open Avdb_txn
open Site_ctx

(* Finalise a prepared transaction at this participant (from a Decision
   message or the termination protocol). The decision ends the doubt, so
   the pending termination check goes with it. *)
let finalize_participant t ~txid decision =
  let action = Two_phase.Participant.on_decision t.participant ~txid decision in
  if action <> Two_phase.Participant.Ignore then
    match Hashtbl.find_opt t.participant_txns txid with
    | Some p ->
        Engine.cancel (engine t) p.p_check;
        let commit = action = Two_phase.Participant.Apply in
        if commit then begin
          Database.commit p.p_txn;
          record_history t ~item:p.p_item ~delta:p.p_delta ~path:"immediate"
        end
        else Database.abort p.p_txn;
        Hashtbl.remove t.participant_txns txid;
        Lock_manager.release_all t.locks ~owner:txid;
        span_field t p.p_span "decision" (if commit then "commit" else "abort");
        if not commit then span_warn t p.p_span;
        span_end t p.p_span;
        Txn_log.record_outcome t.txn_log ~txid decision ~at:(now t)
    | None -> ()

(* --- decision status: one lookup, two answers --- *)

(* What this site knows of [txid]'s decision, in the coordinator's terms:
   a live machine first, then the logged outcome. An own coordination
   without a logged outcome crashed before deciding: outcomes are logged
   before any Commit is broadcast, so abort is the only possible verdict
   (presumed abort), logged so repeated queries agree. Under amnesia the
   outcome record may have been lost rather than never written — recovery
   is adjudicating the entry with the cohort — so the asker is held off.
   Another coordinator's entry without an outcome is still being decided
   there. No entry at all is [No_record] under amnesia: presumed abort is
   unsound once "no entry" stops implying "never happened". *)
let decision_status t ~txid =
  match Hashtbl.find_opt t.coordinators txid with
  | Some coord -> (
      match Two_phase.Coordinator.decision coord.machine with
      | Some d -> Protocol.Decided d
      | None -> Protocol.Still_pending)
  | None -> (
      match Txn_log.find t.txn_log ~txid with
      | Some { Txn_log.outcome = Some d; _ } -> Protocol.Decided d
      | Some { Txn_log.outcome = None; coordinator; _ }
        when Address.equal coordinator t.addr && not t.amnesia ->
          Txn_log.record_outcome t.txn_log ~txid Two_phase.Abort ~at:(now t);
          Protocol.Decided Two_phase.Abort
      | Some { Txn_log.outcome = None; _ } -> Protocol.Still_pending
      | None -> if t.amnesia then Protocol.No_record else Protocol.Unknown_txn)

let handle_query_decision t ~txid ~reply =
  reply (Protocol.Decision_status { txid; status = decision_status t ~txid })

(* Cooperative termination, server side: tell a fellow in-doubt cohort
   member what we know. Answering a query for a transaction we have never
   heard of records a durable refusal pledge first — from then on any late
   prepare for that txid is refused, which is what makes the asker's
   abort sound. Under amnesia the pledge would be a lie (we may have voted
   Ready and lost the record), so the answer is "equally in doubt" and the
   asker looks for a surviving record elsewhere. *)
let handle_peer_decision_query t ~txid ~reply =
  let status =
    match decision_status t ~txid with
    | Protocol.Decided d -> Protocol.Peer_decided d
    | Protocol.Still_pending | Protocol.No_record -> Protocol.Peer_prepared
    | Protocol.Unknown_txn ->
        Txn_log.record_refused t.txn_log ~txid ~at:(now t);
        if tracing t then
          span_instant t ~category:"2pc" "2pc.refuse_pledge"
            ~fields:[ ("txid", string_of_int txid) ];
        Protocol.Peer_will_refuse
  in
  reply (Protocol.Peer_decision_status { txid; status })

(* --- decision status: the one client --- *)

(* Either status reply, read as one verdict. *)
type verdict =
  | Outcome of Two_phase.decision  (* a durable record of the decision *)
  | Abort_safe
      (* the coordinator never started the txn (Start is logged before the
         prepare broadcast), or a fellow pledged never to vote Ready *)
  | Lost  (* the coordinator's log lost the txid *)
  | In_doubt  (* still being decided, or the fellow is equally in doubt *)
  | Silent  (* timeout or an unexpected reply *)

(* Ask the coordinator ({!Protocol.Query_decision}) or a fellow cohort
   member ({!Protocol.Peer_decision_query}) what became of [txid]. *)
let ask_decision ?retry t ~txid who k =
  let dst, request =
    match who with
    | `Coordinator dst -> (dst, Protocol.Query_decision { txid })
    | `Fellow dst -> (dst, Protocol.Peer_decision_query { txid })
  in
  Rpc.call t.shared.rpc ~src:t.addr ~dst ~timeout:(config t).Config.rpc_timeout ?retry
    request
    (fenced t (fun response ->
         k
           (match response with
           | Ok (Protocol.Decision_status { status = Protocol.Decided d; _ })
           | Ok (Protocol.Peer_decision_status { status = Protocol.Peer_decided d; _ }) ->
               Outcome d
           | Ok (Protocol.Decision_status { status = Protocol.Unknown_txn; _ })
           | Ok (Protocol.Peer_decision_status { status = Protocol.Peer_will_refuse; _ }) ->
               Abort_safe
           | Ok (Protocol.Decision_status { status = Protocol.No_record; _ }) -> Lost
           | Ok (Protocol.Decision_status { status = Protocol.Still_pending; _ })
           | Ok (Protocol.Peer_decision_status { status = Protocol.Peer_prepared; _ }) ->
               In_doubt
           | Ok _ | Error _ -> Silent)))

(* The cohort members other than this site and the coordinator. *)
let fellows t ~coordinator cohort =
  List.filter
    (fun a -> not (Address.equal a t.addr || Address.equal a coordinator))
    cohort

let undecided_in_log t ~txid =
  match Txn_log.find t.txn_log ~txid with
  | Some { Txn_log.outcome = None; _ } -> true
  | Some _ | None -> false

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
          List.iter
            (fun fellow ->
              t.metrics.Update.Metrics.termination_queries <-
                t.metrics.Update.Metrics.termination_queries + 1;
              ask_decision t ~txid (`Fellow fellow) (fun verdict ->
                  (match verdict with
                  | Outcome d -> if !decided = None then decided := Some d
                  | Abort_safe -> refused := true
                  | In_doubt -> ()
                  | Lost | Silent -> complete := false);
                  decr outstanding;
                  if !outstanding = 0 then
                    match !decided with
                    | Some d -> decide d
                    | None ->
                        if !refused || !complete then decide Two_phase.Abort
                        else
                          after t ~delay:(config t).Config.repair_interval (fun () ->
                              sweep (n + 1))))
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

(* A termination outcome worth a warning — the doubt outlived the
   protocol's budget, or resolving it needed more than presumed abort —
   recorded on the in-doubt participant's open span. *)
let warn_termination t p how =
  if tracing t then begin
    span_field t p.p_span "termination" how;
    span_warn t p.p_span
  end

let rec schedule_termination_check t ~txid p =
  p.p_check <-
    timer t ~delay:(config t).Config.decision_timeout (fun () ->
      match Hashtbl.find_opt t.participant_txns txid with
      | None -> () (* decided while a query was in flight *)
      | Some p ->
          if is_down t then schedule_termination_check t ~txid p
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
            let fellows = fellows t ~coordinator:p.p_coordinator p.p_cohort in
            (* the item's base first among the fellows: it is the one whose
               ack defines user-visible completion, so it is the most
               likely to know *)
            let base, rest =
              List.partition (Address.equal (base_addr_for t ~item:p.p_item)) fellows
            in
            let targets = p.p_coordinator :: (base @ rest) in
            let target = List.nth targets (p.p_queries mod List.length targets) in
            p.p_queries <- p.p_queries + 1;
            t.metrics.Update.Metrics.termination_queries <-
              t.metrics.Update.Metrics.termination_queries + 1;
            if tracing t then
              span_instant t ~category:"2pc" "2pc.termination_query"
                ~fields:
                  [ ("txid", string_of_int txid); ("target", Address.to_string target) ];
            let who =
              if Address.equal target p.p_coordinator then `Coordinator target
              else `Fellow target
            in
            ask_decision t ~retry:(retry_policy t) ~txid who (function
              | Outcome d -> finalize_participant t ~txid d
              | Abort_safe -> finalize_participant t ~txid Two_phase.Abort
              | Lost ->
                  (* the coordinator's log lost the txid: presumed abort is
                     unsound there, so adjudicate with the full cohort *)
                  warn_termination t p "adjudicate";
                  adjudicate ~span:p.p_span t ~txid ~fellows
                    ~still_wanted:(fun () -> Hashtbl.mem t.participant_txns txid)
                    ~decide:(fun d -> finalize_participant t ~txid d)
              | In_doubt | Silent -> schedule_termination_check t ~txid p)
          end)

(* --- participant --- *)

(* The tentative write of an Immediate transaction, taken under [item]'s
   exclusive lock while the vote is still open ([admit]): apply [delta] in
   a storage transaction left open until the decision. [None] refuses —
   not admitted, or the row would go negative. *)
let tentative_write t ~item ~delta ~admit =
  if not admit then None
  else
    match amount_of t ~item with
    | Some current when current + delta >= 0 -> (
        let txn = Database.begin_txn t.db in
        match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
        | Ok _ -> Some txn
        | Error _ ->
            Database.abort txn;
            None)
    | Some _ | None -> None

let lock_item t ~txid ~item k =
  Lock_manager.acquire t.locks ~owner:txid ~key:item Lock_manager.Exclusive
    ~timeout:(config t).Config.lock_timeout (fenced t k)

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
    lock_item t ~txid ~item (fun lock_result ->
        let prepared =
          (* re-check the poison: a refusal pledge given to a cohort
             member while we waited for the lock binds this vote *)
          match
            tentative_write t ~item ~delta
              ~admit:(Result.is_ok lock_result && not (poisoned ()))
          with
          | Some txn ->
              let p =
                { p_txn = txn; p_coordinator = coordinator; p_cohort = cohort;
                  p_item = item; p_delta = delta; p_span = psp; p_queries = 0;
                  p_check = Engine.no_timer }
              in
              Hashtbl.replace t.participant_txns txid p;
              Some p
          | None -> None
        in
        let vote =
          Two_phase.Participant.on_prepare t.participant ~txid ~can_apply:(prepared <> None)
        in
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
          Option.iter (schedule_termination_check t ~txid) prepared
        end;
        reply (Protocol.Vote { txid; vote }))

let handle_decision t ~txid ~decision ~reply =
  finalize_participant t ~txid decision;
  reply (Protocol.Decision_ack { txid })

(* --- coordinator --- *)

(* Push [decision] to [cohort]; each acknowledgement advances [machine]
   through [execute]. *)
let broadcast_decision t ?span ~txid ~cohort ~machine ~execute decision =
  List.iter
    (fun p ->
      Rpc.call t.shared.rpc ~src:t.addr ~dst:p ~timeout:(config t).Config.ack_timeout ?span
        (Protocol.Decision { txid; decision })
        (fenced t (fun response ->
             match response with
             | Ok (Protocol.Decision_ack _) ->
                 execute (Two_phase.Coordinator.on_ack machine ~from:p)
             | Ok _ | Error _ -> ())))
    cohort

(* The coordination is closed (all acks, or we gave up waiting): mark it
   ended so recovery does not re-broadcast, and drop the ack deadline.
   Stragglers that missed the decision resolve through the pull-side
   termination protocol, served from the log. *)
let close_coordination t ~txid coord =
  Engine.cancel (engine t) coord.ack_timer;
  Txn_log.record_end t.txn_log ~txid ~at:(now t);
  Hashtbl.remove t.coordinators txid

let immediate_update t ~item ~delta ~finish =
  let txid = fresh_txid t in
  let root = span_start t ~category:"update" "update.immediate" in
  span_field t root "item" item;
  span_field_int t root "delta" delta;
  span_field_int t root "txid" txid;
  let finish outcome = finish_in t root finish outcome in
  (* Cohort = the item's replica set (everyone under full replication);
     user-visible completion keys on the item's base, not a global one. *)
  let participant_addrs = peers_for t ~item in
  let machine =
    Two_phase.Coordinator.create ~txid ~participants:participant_addrs
      ~base:(base_addr_for t ~item)
  in
  Txn_log.record_start t.txn_log ~txid ~coordinator:t.addr ~cohort:participant_addrs ~item
    ~delta ~at:(now t);
  let coord =
    { machine; finish; local_txn = None; local_finalized = false;
      ack_timer = Engine.no_timer }
  in
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
           the participant's termination protocol. Each call's own timeout
           bounds the vote phase: by [prepare_timeout] every vote is in or
           counted as a Refuse, so the phase needs no timer of its own. *)
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
          participant_addrs
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
        broadcast_decision t ?span:!decision_span ~txid ~cohort:participant_addrs ~machine
          ~execute decision;
        coord.ack_timer <-
          timer t ~delay:(config t).Config.ack_timeout (fun () ->
              execute (Two_phase.Coordinator.on_ack_timeout machine))
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
    | Two_phase.Coordinator.Cleanup _ -> close_coordination t ~txid coord
  in
  (* Local participation: lock, tentatively apply, derive the local vote. *)
  lock_item t ~txid ~item (fun lock_result ->
      let local_vote =
        match tentative_write t ~item ~delta ~admit:(Result.is_ok lock_result) with
        | Some _ as txn ->
            coord.local_txn <- txn;
            Two_phase.Ready
        | None -> Two_phase.Refuse
      in
      if local_vote = Two_phase.Refuse then Lock_manager.release_all t.locks ~owner:txid;
      execute (Two_phase.Coordinator.start machine ~local_vote))

(* --- recovery: in-doubt participants and unfinished coordinations --- *)

(* Re-install one in-doubt participant transaction from its durable Start
   record: re-acquire the exclusive lock (always free right after
   recovery — at most one in-doubt txn can exist per item, precisely
   because prepare holds the exclusive lock), redo the tentative write,
   re-register with the 2PC machine and restart the termination checks
   with a fresh budget. *)
let reinstall_in_doubt t (e : Txn_log.entry) =
  let txid = e.Txn_log.txid and item = e.Txn_log.item and delta = e.Txn_log.delta in
  lock_item t ~txid ~item (fun lock_result ->
      match tentative_write t ~item ~delta ~admit:(Result.is_ok lock_result) with
      | None -> failwith (Printf.sprintf "Site.recover: cannot re-apply in-doubt tx%d" txid)
      | Some txn ->
          ignore (Two_phase.Participant.on_prepare t.participant ~txid ~can_apply:true);
          let psp = span_start t ~category:"2pc" "2pc.participant.recovered" in
          span_field_int t psp "txid" txid;
          span_field t psp "item" item;
          let p =
            { p_txn = txn; p_coordinator = e.Txn_log.coordinator; p_cohort = e.Txn_log.cohort;
              p_item = item; p_delta = delta; p_span = psp; p_queries = 0;
              p_check = Engine.no_timer }
          in
          Hashtbl.replace t.participant_txns txid p;
          t.metrics.Update.Metrics.in_doubt_recovered <-
            t.metrics.Update.Metrics.in_doubt_recovered + 1;
          schedule_termination_check t ~txid p)

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
      { machine; finish = (fun _ -> ()); local_txn = None; local_finalized = true;
        ack_timer = Engine.no_timer }
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
          broadcast_decision t ~txid ~cohort ~machine ~execute d
      | Two_phase.Coordinator.Cleanup _ -> close_coordination t ~txid coord
      | Two_phase.Coordinator.Completed _ | Two_phase.Coordinator.Broadcast_prepare ->
          (* the submitting client died with the crashed incarnation;
             [recovered] marks completion as already emitted, so this
             cannot happen — and must never call anyone's continuation *)
          ()
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
          after t ~delay:(config t).Config.rebroadcast_interval (fun () -> round (n + 1))
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
  adjudicate t ~txid
    ~fellows:(fellows t ~coordinator:t.addr e.Txn_log.cohort)
    ~still_wanted:(fun () -> undecided_in_log t ~txid)
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
  let unresolved () = undecided_in_log t ~txid in
  let rec poll attempt =
    if attempt < max_decision_queries && unresolved () && not (is_down t) then
      ask_decision t ~txid (`Coordinator coordinator) (function
        | Outcome d -> record d
        | Abort_safe -> record Two_phase.Abort
        | Lost ->
            adjudicate t ~txid
              ~fellows:(fellows t ~coordinator e.Txn_log.cohort)
              ~still_wanted:unresolved ~decide:record
        | In_doubt | Silent ->
            after t ~delay:(config t).Config.repair_interval (fun () -> poll (attempt + 1)))
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
  (* keep the txid allocator above everything we ever coordinated; epoch
     intents draw from the same allocator *)
  let reserve ~origin txid =
    if Address.equal origin t.addr then begin
      let seq = txid - (Address.to_int t.addr * 1_000_000) in
      if seq >= t.next_txn_seq then t.next_txn_seq <- seq + 1
    end
  in
  List.iter
    (fun (e : Txn_log.entry) -> reserve ~origin:e.Txn_log.coordinator e.Txn_log.txid)
    (Txn_log.entries t.txn_log);
  List.iter
    (fun (ie : Txn_log.intent_entry) -> reserve ~origin:ie.Txn_log.in_origin ie.Txn_log.in_txid)
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

(* In-flight participant transactions, coordinations and locks die with
   the process. *)
let reset t =
  Hashtbl.reset t.participant_txns;
  Hashtbl.reset t.coordinators;
  Two_phase.Participant.reset t.participant;
  t.locks <-
    Lock_manager.create ~engine:(engine t) ~default_timeout:(config t).Config.lock_timeout ()
