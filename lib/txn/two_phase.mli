(** Primary-copy two-phase commit state machines (§3.3, Immediate Update).

    The paper's Immediate Update: the requesting accelerator coordinates;
    it locks locally, sends lock/prepare requests to every other site
    simultaneously, collects ready votes, broadcasts the decision, and
    "judges the completion of the update with the message from the
    accelerator at the base" — i.e. user-visible completion is the base
    site's acknowledgement, while lock cleanup waits for all of them.

    Both roles are pure state machines: they receive events and return
    actions for the embedding site to execute (send messages, apply or
    revert the operation). This keeps the protocol logic independently
    testable from networking and storage. *)

type decision = Commit | Abort

val pp_decision : Format.formatter -> decision -> unit

type vote = Ready | Refuse

val pp_vote : Format.formatter -> vote -> unit

module Coordinator : sig
  type t

  type action =
    | Broadcast_prepare  (** send prepare to every participant *)
    | Broadcast_decision of decision
    | Completed of decision
        (** report completion to the user (base has acknowledged) *)
    | Cleanup of decision  (** all acks received; release local resources *)

  val create : txid:int -> participants:Avdb_net.Address.t list -> base:Avdb_net.Address.t -> t
  (** [participants] are the remote sites (coordinator excluded). [base]
      is the site whose decision-ack signals user-visible completion; if
      [base] is not among the participants (the coordinator {e is} the
      base), completion coincides with the decision. *)

  val txid : t -> int

  val start : t -> local_vote:vote -> action list
  (** Feeds the coordinator's own (local) vote and starts the protocol.
      With no remote participants the transaction decides immediately. *)

  val on_vote : t -> from:Avdb_net.Address.t -> vote -> action list
  (** Duplicate or unknown votes are ignored. A [Refuse] decides [Abort]
      without waiting for stragglers. The vote phase has no deadline of
      its own: a prepare that gets no answer in time is a [Refuse]. *)

  val on_ack : t -> from:Avdb_net.Address.t -> action list
  (** Acknowledgement of the decision. Emits [Completed] when the base
      acks (once) and [Cleanup] when everyone has. *)

  val on_ack_timeout : t -> action list
  (** Give up waiting for decision acks: emits the pending [Completed]
      (if the base never acked) and [Cleanup]. *)

  val recovered :
    txid:int ->
    participants:Avdb_net.Address.t list ->
    base:Avdb_net.Address.t ->
    decision ->
    t
  (** Rebuilds a coordinator from its durably-logged decision after a
      crash: the machine restarts in the ack-collection phase (acks are
      not logged, so the round restarts from scratch) and [Completed] is
      already considered emitted — the submitting client died with the
      crashed incarnation, so recovery must never fire its continuation. *)

  val rebroadcast : t -> action list
  (** [Broadcast_decision] again while acks are still outstanding; []
      once done. Recovery drives this until every ack arrives. *)

  val decision : t -> decision option
  val is_done : t -> bool
end

module Participant : sig
  type t

  (** What the embedding site must do with the tentatively-applied
      operation. *)
  type action = Apply | Revert | Ignore

  val create : unit -> t

  val on_prepare : t -> txid:int -> can_apply:bool -> vote
  (** Registers the transaction and votes. [can_apply = false] (lock or
      validation failure) votes [Refuse] and forgets the txid. A repeated
      prepare for a known txid re-votes identically (idempotent). *)

  val on_decision : t -> txid:int -> decision -> action
  (** [Ignore] for unknown transactions (e.g. refused earlier, or a
      duplicate decision). *)

  val pending : t -> int list
  (** Transactions prepared but undecided, sorted. *)

  val forget : t -> txid:int -> unit
  (** Drop one registration (e.g. a refused or stale txid). Prepared
      transactions must {e not} be forgotten unilaterally — they resolve
      through the termination protocol.  *)

  val reset : t -> unit
  (** Fresh incarnation after a crash: clears every registration.
      Recovery re-installs the prepared (in-doubt) ones from the durable
      transaction log before processing any new message. *)
end
