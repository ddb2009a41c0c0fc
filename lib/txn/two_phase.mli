(** Primary-copy two-phase commit's coordinator (§3.3, Immediate Update).

    The paper's Immediate Update: the requesting accelerator coordinates;
    it locks locally, sends lock/prepare requests to every other site
    simultaneously, collects ready votes, broadcasts the decision, and
    "judges the completion of the update with the message from the
    accelerator at the base" — i.e. user-visible completion is the base
    site's acknowledgement, while lock cleanup waits for all of them.

    The coordinator is a pure state machine: it receives events and
    returns actions for the embedding site to execute (send messages,
    report completion, release resources). This keeps the protocol logic
    independently testable from networking and storage. A participant
    needs no machine: it votes Ready exactly when its tentative write
    succeeded, and its site's table of prepared transactions is all the
    state a decision consults. *)

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
