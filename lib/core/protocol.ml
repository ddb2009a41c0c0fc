open Avdb_net
open Avdb_txn

type decision_status =
  | Decided of Two_phase.decision
  | Still_pending
  | Unknown_txn
  | No_record
      (** The asked coordinator lost (part of) its protocol log to a storage
          fault: it has no record of the txid and, unlike [Unknown_txn],
          cannot presume abort — the decision may have existed and been
          lost. The asker must adjudicate with the full cohort instead. *)

type peer_status =
  | Peer_decided of Two_phase.decision
  | Peer_prepared
  | Peer_will_refuse

type central_status = Central_applied | Central_insufficient | Central_unknown_item

type request =
  | Av_request of {
      item : string;
      amount : int;
      requester_available : int;
      sync : (string * int * int) list;
    }
  | Central_update of { item : string; delta : int }
  | Prepare of {
      txid : int;
      coordinator : Address.t;
      cohort : Address.t list;
      item : string;
      delta : int;
    }
  | Decision of { txid : int; decision : Two_phase.decision }
  | Read_request of { item : string }
  | Query_decision of { txid : int }
  | Peer_decision_query of { txid : int }
  | Join_request of { wanted : string list option }
      (** [None]: the whole catalogue (full replication); [Some items]:
          only the joiner's interest set — a partially-replicating server
          answers with just the rows and sync counters it holds for them *)
  | Epoch_intent of { item : string; txid : int; origin : Address.t; delta : int }
  | Epoch_propose of {
      item : string;
      epoch : int;
      ballot : int;
      seal : Txn_log.intent list;
    }
  | Epoch_commit of { item : string; epoch : int; seal : Txn_log.intent list }
  | Epoch_pull of { item : string; from_epoch : int }
  | Epoch_collect of { item : string; epoch : int; ballot : int }

type response =
  | Av_grant of {
      granted : int;
      donor_available : int;
      av_levels : (string * int) list;
      sync : (string * int * int) list;
    }
  | Central_ack of { status : central_status; new_amount : int }
  | Vote of { txid : int; vote : Two_phase.vote }
  | Decision_ack of { txid : int }
  | Read_value of { amount : int option }
  | Decision_status of { txid : int; status : decision_status }
  | Peer_decision_status of { txid : int; status : peer_status }
  | Join_snapshot of {
      rows : (string * int * bool) list;
          (** committed state only: tentative 2PC deltas are subtracted *)
      sync_state : (int * string * int * int) list;
      pending : (int * int * string * int) list;
          (** in-flight 2PC txns touching the requested items, as
              (txid, coordinator, item, delta) — a repairing site must
              watch these resolve before trusting its snapshot *)
      epochs : (string * int) list;
          (** per requested epoch-class item: the donor's applied epoch at
              snapshot time — the joiner's floor, so later seals are not
              double-applied onto the snapshot *)
    }
  | Epoch_intent_ack of { txid : int; sealed : bool }
  | Epoch_vote of { item : string; epoch : int; accepted : bool }
  | Epoch_commit_ack of { item : string; epoch : int; applied_epoch : int }
  | Epoch_seals of { item : string; seals : (int * Txn_log.intent list) list }
  | Epoch_state of {
      item : string;
      epoch : int;
      promised : int;
      sealed : Txn_log.intent list option;
      accepted : (int * Txn_log.intent list) option;
      applied_epoch : int;
    }
  | Bad_request of string

type notice =
  | Sync_counters of {
      counters : (string * int * int) list;
      av_info : (string * int) list;
      ack : int;
    }

(* Rough wire sizes: a fixed header plus per-field costs; strings count
   their bytes, ints 8. They feed the byte counters, where only relative
   magnitudes matter, not exact encodings. *)
let header = 16

(* A (item, version, cum) sync triple: the item's bytes plus two ints. *)
let sync_size acc (item, _, _) = acc + String.length item + 16
let level_size acc (item, _) = acc + String.length item + 8

(* An epoch-seal intent: txid + origin + delta. *)
let seal_size seal = 24 * List.length seal

let wire_size_request = function
  | Av_request { item; sync; _ } ->
      header + String.length item + 16 + List.fold_left sync_size 0 sync
  | Central_update { item; _ } -> header + String.length item + 8
  | Prepare { item; cohort; _ } -> header + String.length item + 24 + (8 * List.length cohort)
  | Decision _ -> header + 9
  | Read_request { item } -> header + String.length item
  | Query_decision _ -> header + 8
  | Peer_decision_query _ -> header + 8
  | Join_request { wanted } ->
      header
      + (match wanted with
        | None -> 0
        | Some items -> List.fold_left (fun acc i -> acc + String.length i) 0 items)
  | Epoch_intent { item; _ } -> header + String.length item + 24
  | Epoch_propose { item; seal; _ } -> header + String.length item + 16 + seal_size seal
  | Epoch_commit { item; seal; _ } -> header + String.length item + 8 + seal_size seal
  | Epoch_pull { item; _ } -> header + String.length item + 8
  | Epoch_collect { item; _ } -> header + String.length item + 16

let wire_size_response = function
  | Av_grant { av_levels; sync; _ } ->
      header + 16
      + List.fold_left level_size 0 av_levels
      + List.fold_left sync_size 0 sync
  | Central_ack _ -> header + 9
  | Vote _ -> header + 9
  | Decision_ack _ -> header + 8
  | Read_value _ -> header + 9
  | Decision_status _ -> header + 9
  | Peer_decision_status _ -> header + 9
  | Join_snapshot { rows; sync_state; pending; epochs } ->
      header
      + List.fold_left (fun acc (item, _, _) -> acc + String.length item + 9) 0 rows
      + (List.length sync_state * 28)
      + List.fold_left (fun acc (_, _, item, _) -> acc + String.length item + 24) 0 pending
      + List.fold_left level_size 0 epochs
  | Epoch_intent_ack _ -> header + 9
  | Epoch_vote { item; _ } -> header + String.length item + 9
  | Epoch_commit_ack { item; _ } -> header + String.length item + 16
  | Epoch_seals { item; seals } ->
      header + String.length item
      + List.fold_left (fun acc (_, seal) -> acc + 8 + seal_size seal) 0 seals
  | Epoch_state { item; sealed; accepted; _ } ->
      header + String.length item + 24
      + (match sealed with None -> 0 | Some s -> seal_size s)
      + (match accepted with None -> 0 | Some (_, s) -> 8 + seal_size s)
  | Bad_request msg -> header + String.length msg

let wire_size_notice = function
  | Sync_counters { counters; av_info; ack } ->
      header
      + List.fold_left sync_size 0 counters
      + List.fold_left level_size 0 av_info
      + if ack > 0 then 8 else 0

(* Span names for the RPC tracer: constructor only, no payload. *)
let request_label = function
  | Av_request _ -> "av_request"
  | Central_update _ -> "central_update"
  | Prepare _ -> "prepare"
  | Decision _ -> "decision"
  | Read_request _ -> "read"
  | Query_decision _ -> "query_decision"
  | Peer_decision_query _ -> "peer_decision_query"
  | Join_request _ -> "join"
  | Epoch_intent _ -> "epoch_intent"
  | Epoch_propose _ -> "epoch_propose"
  | Epoch_commit _ -> "epoch_commit"
  | Epoch_pull _ -> "epoch_pull"
  | Epoch_collect _ -> "epoch_collect"

let pp_request ppf = function
  | Av_request { item; amount; requester_available; sync } ->
      Format.fprintf ppf "av_request(%s, %d, have=%d, sync=%d)" item amount
        requester_available (List.length sync)
  | Central_update { item; delta } -> Format.fprintf ppf "central_update(%s, %+d)" item delta
  | Prepare { txid; coordinator; cohort; item; delta } ->
      Format.fprintf ppf "prepare(tx%d, coord=%a, cohort=%d, %s, %+d)" txid Address.pp
        coordinator (List.length cohort) item delta
  | Decision { txid; decision } ->
      Format.fprintf ppf "decision(tx%d, %a)" txid Two_phase.pp_decision decision
  | Read_request { item } -> Format.fprintf ppf "read_request(%s)" item
  | Query_decision { txid } -> Format.fprintf ppf "query_decision(tx%d)" txid
  | Peer_decision_query { txid } -> Format.fprintf ppf "peer_decision_query(tx%d)" txid
  | Join_request { wanted } ->
      Format.fprintf ppf "join_request(%s)"
        (match wanted with
        | None -> "all"
        | Some items -> string_of_int (List.length items) ^ " items")
  | Epoch_intent { item; txid; origin; delta } ->
      Format.fprintf ppf "epoch_intent(%s, tx%d, from=%a, %+d)" item txid Address.pp
        origin delta
  | Epoch_propose { item; epoch; ballot; seal } ->
      Format.fprintf ppf "epoch_propose(%s, e%d, b%d, %d intents)" item epoch ballot
        (List.length seal)
  | Epoch_commit { item; epoch; seal } ->
      Format.fprintf ppf "epoch_commit(%s, e%d, %d intents)" item epoch
        (List.length seal)
  | Epoch_pull { item; from_epoch } ->
      Format.fprintf ppf "epoch_pull(%s, from e%d)" item from_epoch
  | Epoch_collect { item; epoch; ballot } ->
      Format.fprintf ppf "epoch_collect(%s, e%d, b%d)" item epoch ballot

let pp_response ppf = function
  | Av_grant { granted; donor_available; av_levels; sync } ->
      Format.fprintf ppf "av_grant(%d, donor_has=%d, levels=%d, sync=%d)" granted
        donor_available (List.length av_levels) (List.length sync)
  | Central_ack { status; new_amount } ->
      Format.fprintf ppf "central_ack(%s, %d)"
        (match status with
        | Central_applied -> "applied"
        | Central_insufficient -> "insufficient"
        | Central_unknown_item -> "unknown-item")
        new_amount
  | Vote { txid; vote } -> Format.fprintf ppf "vote(tx%d, %a)" txid Two_phase.pp_vote vote
  | Decision_ack { txid } -> Format.fprintf ppf "decision_ack(tx%d)" txid
  | Read_value { amount } ->
      Format.fprintf ppf "read_value(%s)"
        (match amount with Some n -> string_of_int n | None -> "none")
  | Join_snapshot { rows; sync_state; pending; epochs } ->
      Format.fprintf ppf "join_snapshot(%d rows, %d counters, %d pending, %d epochs)"
        (List.length rows) (List.length sync_state) (List.length pending)
        (List.length epochs)
  | Decision_status { txid; status } ->
      Format.fprintf ppf "decision_status(tx%d, %s)" txid
        (match status with
        | Decided d -> Format.asprintf "%a" Two_phase.pp_decision d
        | Still_pending -> "pending"
        | Unknown_txn -> "unknown"
        | No_record -> "no-record")
  | Peer_decision_status { txid; status } ->
      Format.fprintf ppf "peer_decision_status(tx%d, %s)" txid
        (match status with
        | Peer_decided d -> Format.asprintf "%a" Two_phase.pp_decision d
        | Peer_prepared -> "prepared"
        | Peer_will_refuse -> "will-refuse")
  | Epoch_intent_ack { txid; sealed } ->
      Format.fprintf ppf "epoch_intent_ack(tx%d, %s)" txid
        (if sealed then "sealed" else "buffered")
  | Epoch_vote { item; epoch; accepted } ->
      Format.fprintf ppf "epoch_vote(%s, e%d, %s)" item epoch
        (if accepted then "accept" else "reject")
  | Epoch_commit_ack { item; epoch; applied_epoch } ->
      Format.fprintf ppf "epoch_commit_ack(%s, e%d, applied=e%d)" item epoch
        applied_epoch
  | Epoch_seals { item; seals } ->
      Format.fprintf ppf "epoch_seals(%s, %d seals)" item (List.length seals)
  | Epoch_state { item; epoch; promised; sealed; accepted; applied_epoch } ->
      Format.fprintf ppf "epoch_state(%s, e%d, promised=b%d, %s, applied=e%d)" item
        epoch promised
        (match (sealed, accepted) with
        | Some _, _ -> "sealed"
        | None, Some (b, _) -> Printf.sprintf "accepted@b%d" b
        | None, None -> "empty")
        applied_epoch
  | Bad_request msg -> Format.fprintf ppf "bad_request(%s)" msg

let pp_notice ppf = function
  | Sync_counters { counters; av_info = _; ack } ->
      Format.fprintf ppf "sync_counters(%d items, ack=%d)" (List.length counters) ack

let prepare_timeout = Avdb_sim.Time.of_ms 250.
let ack_timeout = Avdb_sim.Time.of_ms 250.
let lock_timeout = Avdb_sim.Time.of_ms 50.
let decision_timeout = Avdb_sim.Time.of_ms 500.
let rebroadcast_interval = Avdb_sim.Time.of_ms 250.
let rebroadcast_rounds = 8
let repair_interval = Avdb_sim.Time.of_ms 25.
let epoch_interval = Avdb_sim.Time.of_ms 5.
