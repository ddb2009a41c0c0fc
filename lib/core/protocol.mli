(** Wire messages between accelerators.

    One request/response enum covers all three protocols — Delay Update's
    AV transfer, Immediate Update's primary-copy 2PC, and the centralized
    baseline — so a single {!Avdb_net.Rpc.t} carries everything and the
    correspondence accounting is uniform. *)

(** Coordinator's answer to {!Query_decision}. [Unknown_txn] means the
    coordinator has no record — with outcomes logged at decision time this
    implies it never decided, so the participant may presume abort. *)
type decision_status =
  | Decided of Avdb_txn.Two_phase.decision
  | Still_pending
  | Unknown_txn
  | No_record
      (** The asked coordinator lost (part of) its protocol log to a
          storage fault: it has no record of the txid and, unlike
          [Unknown_txn], cannot presume abort — a decision may have existed
          and been lost. The asker must adjudicate with the full cohort. *)

(** A fellow cohort member's answer to {!Peer_decision_query} (cooperative
    termination, used when the coordinator is unreachable). [Peer_will_refuse]
    is a durable pledge: the peer has never prepared the transaction and has
    logged a refusal record, so it can never vote Ready later — since commit
    requires every cohort vote, the asker may safely abort. *)
type peer_status =
  | Peer_decided of Avdb_txn.Two_phase.decision
  | Peer_prepared
  | Peer_will_refuse

(** Base's answer to a {!Central_update}: rejection distinguishes an item
    the base does not stock from one with insufficient stock, so the caller
    can surface the right {!Update.reason}. *)
type central_status = Central_applied | Central_insufficient | Central_unknown_item

type request =
  | Av_request of {
      item : string;
      amount : int;
      requester_available : int;
      sync : (string * int * int) list;
    }
      (** ask for AV; [requester_available] piggybacks the caller's own
          holdings so the donor's peer view stays warm, and [sync]
          piggybacks the caller's versioned sync counters (item, version,
          cumulative delta — see {!Sync_counters}) so the donor's replica
          freshens without a dedicated notice. The grant reply doubles as
          a delivery acknowledgement: the caller marks these counters as
          conveyed to the donor and later lazy-propagation notices omit
          them. *)
  | Central_update of { item : string; delta : int }
      (** centralized baseline: forward the user update to the base *)
  | Prepare of {
      txid : int;
      coordinator : Avdb_net.Address.t;
      cohort : Avdb_net.Address.t list;
          (** every participant of the transaction (coordinator excluded);
              logged durably so an in-doubt participant knows whom to ask
              during cooperative termination *)
      item : string;
      delta : int;
    }  (** Immediate Update phase 1: lock and tentatively apply *)
  | Decision of { txid : int; decision : Avdb_txn.Two_phase.decision }
      (** Immediate Update phase 2 *)
  | Read_request of { item : string }
      (** authoritative read served by the base replica *)
  | Query_decision of { txid : int }
      (** termination protocol: a prepared participant asks the
          coordinator for the outcome after its decision timeout *)
  | Peer_decision_query of { txid : int }
      (** cooperative termination: a prepared participant whose
          coordinator is unreachable asks a fellow cohort member what it
          knows about the transaction *)
  | Join_request of { wanted : string list option }
      (** a new site asks a base for its initial data ("all data are
          assumed to be delivered to all the sites initially from the
          base", §3.2). [None] requests the whole catalogue; under partial
          replication a joiner sends [Some interest_set] to each distinct
          per-item base so servers answer with only the rows and sync
          counters they hold for those items *)
  | Epoch_intent of {
      item : string;
      txid : int;
      origin : Avdb_net.Address.t;
      delta : int;
    }
      (** epoch-quorum commit: a writer (or a relay) forwards a durably
          logged intent to the epoch's current sequencer candidate for
          inclusion in the next seal *)
  | Epoch_propose of {
      item : string;
      epoch : int;
      ballot : int;
      seal : Avdb_txn.Txn_log.intent list;
    }
      (** single-decree phase 2 for (item, epoch): the candidate at
          [ballot] asks subscribers to durably accept this totally-ordered
          seal; a quorum of acceptances makes the seal the epoch's decision *)
  | Epoch_commit of { item : string; epoch : int; seal : Avdb_txn.Txn_log.intent list }
      (** learn broadcast of a sealed epoch; receivers apply contiguously
          and pull any gap *)
  | Epoch_pull of { item : string; from_epoch : int }
      (** catch-up: ask a peer for every sealed epoch after [from_epoch] *)
  | Epoch_collect of { item : string; epoch : int; ballot : int }
      (** single-decree phase 1, run by a takeover candidate ([ballot] > 0)
          after suspecting the rotating sequencer: collect promises and any
          previously accepted seal so the successor decides the same value
          the crashed sequencer may have sealed (presumed-unsealed only
          when no acceptor reports a value) *)

type response =
  | Av_grant of {
      granted : int;
      donor_available : int;
      av_levels : (string * int) list;
      sync : (string * int * int) list;
    }
      (** [donor_available] piggybacks the donor's remaining holdings on
          the requested item; [av_levels] extends that to the donor's
          available AV across items so the requester's whole selection
          cache warms from one reply; [sync] piggybacks the donor's
          versioned sync counters (unacknowledged — version checks at the
          receiver make replays harmless) *)
  | Central_ack of { status : central_status; new_amount : int }
  | Vote of { txid : int; vote : Avdb_txn.Two_phase.vote }
  | Decision_ack of { txid : int }
  | Read_value of { amount : int option }
      (** [None] when the item does not exist at the serving site *)
  | Decision_status of { txid : int; status : decision_status }
  | Peer_decision_status of { txid : int; status : peer_status }
  | Join_snapshot of {
      rows : (string * int * bool) list;  (** item, amount, regular *)
      sync_state : (int * string * int * int) list;
          (** per (origin site, item): the version and cumulative sync
              counter already folded into [rows] — the joiner seeds its
              receiver state with these so later notices apply only newer
              deltas *)
      pending : (int * int * string * int) list;
          (** in-flight 2PC transactions touching the requested items, as
              (txid, coordinator, item, delta). [rows] holds committed
              state only (tentative deltas subtracted); a corruption-repair
              client must watch these resolve — applying each commit
              exactly once — before trusting its installed snapshot. *)
      epochs : (string * int) list;
          (** per requested epoch-class item: the donor's applied epoch at
              snapshot time. The client records it as its durable epoch
              floor so sealed epochs already folded into [rows] are never
              re-applied, and as its acceptor fence after amnesia. *)
    }
  | Epoch_intent_ack of { txid : int; sealed : bool }
      (** [sealed] when the receiver has already applied a seal containing
          the txid — the writer's pump can stop re-sending it *)
  | Epoch_vote of { item : string; epoch : int; accepted : bool }
      (** acceptor's answer to {!Epoch_propose}: [accepted = false] means a
          higher-ballot candidate holds this acceptor's promise *)
  | Epoch_commit_ack of { item : string; epoch : int; applied_epoch : int }
      (** learner's answer to {!Epoch_commit}; [applied_epoch] tells the
          sealer how far this subscriber has actually applied *)
  | Epoch_seals of { item : string; seals : (int * Avdb_txn.Txn_log.intent list) list }
      (** answer to {!Epoch_pull}: every sealed (epoch, seal) the server
          holds after the requested point *)
  | Epoch_state of {
      item : string;
      epoch : int;
      promised : int;
      sealed : Avdb_txn.Txn_log.intent list option;
      accepted : (int * Avdb_txn.Txn_log.intent list) option;
      applied_epoch : int;
    }
      (** acceptor's answer to {!Epoch_collect}: the promise (now at least
          the collector's ballot), whether the epoch is already sealed
          here, and any (ballot, seal) this acceptor previously accepted *)
  | Bad_request of string
      (** protocol mismatch, e.g. a [Central_update] at a non-base site *)

type notice =
  | Sync_counters of {
      counters : (string * int * int) list;
      av_info : (string * int) list;
      ack : int;
    }
      (** Delay Update's lazy propagation. Each counter is
          [(item, version, cum)]: [cum] is the sender's {e cumulative} net
          delta on [item] since the system started and [version] a
          strictly increasing per-origin stamp bumped on every local
          change. A receiver applies [cum - last_cum] iff
          [version > last_version] for that (origin, item), so lost,
          duplicated {e or reordered} notices never lose, double-apply or
          regress updates — the version check is what makes the same
          triples safe to piggyback on retried RPCs. [av_info] piggybacks
          the sender's current available AV for those items, keeping
          peers' selection caches warm at zero extra messages (§4:
          "information is collected at the necessary communication").
          [ack] is the sender's cumulative acknowledgement of the
          {e receiver's} counters: the highest version the sender has
          applied from the receiver (0 before the first), the only entry
          of the sender's applied state the receiver reads. Because every
          payload carries an origin's complete unacknowledged backlog,
          "applied version v" implies "applied everything ≤ v", so the
          receiver can prune its later notices to the sender down to the
          true backlog — TCP-style cumulative acks riding the
          reverse-direction sync traffic. It costs 8 bytes on the wire
          when positive and nothing when 0, so a notice's size does not
          grow with the number of origins its sender hears from. *)

val wire_size_request : request -> int
(** Rough serialized size in bytes, feeding the network byte counters. *)

val wire_size_response : response -> int
val wire_size_notice : notice -> int

val request_label : request -> string
(** Short constructor name ("av_request", "prepare", ...) used to name RPC
    spans. *)

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
val pp_notice : Format.formatter -> notice -> unit

(** {2 Timings}

    The protocols' fixed timeouts and retry cadences, in virtual time. *)

val prepare_timeout : Avdb_sim.Time.t
(** Immediate Update vote collection: by then every vote is in or the
    coordinator aborts. *)

val ack_timeout : Avdb_sim.Time.t
(** Immediate Update decision acks, and each decision send's RPC timeout. *)

val lock_timeout : Avdb_sim.Time.t
(** A participant's wait for an item lock; a cross-site deadlock ends
    when one waiter times out and votes abort. *)

val decision_timeout : Avdb_sim.Time.t
(** How long a prepared participant waits for the decision before running
    the termination protocol: query the coordinator, then the base and
    fellow cohort members; presume abort only when the coordinator durably
    reports it never decided. *)

val rebroadcast_interval : Avdb_sim.Time.t
(** Pacing of a recovered coordinator's decision re-broadcast while acks
    are outstanding. *)

val rebroadcast_rounds : int
(** How many re-broadcast rounds a recovered coordinator attempts before
    giving up the push path. Bounded so a participant that stays down
    cannot keep the event queue alive forever; the participants'
    pull-side termination protocol remains the safety net. *)

val repair_interval : Avdb_sim.Time.t
(** Pacing of corruption-repair donor retries and pending-transaction
    watch polls after a storage fault. *)

val epoch_interval : Avdb_sim.Time.t
(** Epoch-quorum commit progress-pump cadence: a site with unsealed
    intents re-sends them every tick, the sequencer debounces epoch
    closes by one tick, and takeover candidacy escalates one rank every
    few ticks. *)
