(** Durable protocol log of distributed transactions at one site.

    Append-only, mirroring the storage WAL's discipline: a protocol state
    transition is logged {e before} the site acts on it, and the
    queryable entry table is an index rebuilt by replaying records. The
    log survives a crash (it is the durable medium in the simulation, as
    the WAL is for table state), so {!Site.recover} can re-install
    in-doubt 2PC state instead of dropping it:

    - [Start] — coordinator side: logged before the prepare broadcast;
      participant side: logged at the moment of voting Ready (the
      "prepared" record). Carries the full cohort so a recovered
      participant knows whom to ask during cooperative termination.
    - [Outcome] — the commit/abort decision. A coordinator records it
      before broadcasting (presumed abort depends on "no outcome record
      => never committed"); a participant records it when finalising.
    - [End] — coordinator only: every decision ack arrived, the
      coordination is closed; recovery does not re-broadcast ended txns.
    - [Refused] — a cooperative-termination pledge: this site has not
      voted Ready for the txid and promises to refuse any (late) prepare
      for it, which lets a fellow in-doubt participant presume abort. *)

(** One epoch-quorum write intent: the unit a seal totally orders. *)
type intent = { i_txid : int; i_origin : Avdb_net.Address.t; i_delta : int }

type record =
  | Start of {
      txid : int;
      coordinator : Avdb_net.Address.t;
      cohort : Avdb_net.Address.t list;
      item : string;
      delta : int;
      at : Avdb_sim.Time.t;
    }
  | Outcome of { txid : int; decision : Two_phase.decision; at : Avdb_sim.Time.t }
  | End of { txid : int; at : Avdb_sim.Time.t }
  | Refused of { txid : int; at : Avdb_sim.Time.t }
  | Intent of {
      txid : int;
      origin : Avdb_net.Address.t;
      item : string;
      delta : int;
      at : Avdb_sim.Time.t;
    }
      (** epoch class, writer side: logged before the intent is sent to
          any sequencer, so a crashed writer re-sends on recovery *)
  | Epoch_accept of {
      item : string;
      epoch : int;
      ballot : int;
      seal : intent list;
      at : Avdb_sim.Time.t;
    }
      (** epoch class, acceptor side: a promise-and-accept of one
          proposal — logged before the ack, so quorum intersection holds
          across crashes *)
  | Epoch_seal of { item : string; epoch : int; seal : intent list; at : Avdb_sim.Time.t }
      (** epoch class: the sealed decision, logged in the same atomic
          event as applying its deltas locally *)
  | Epoch_promise of { item : string; epoch : int; ballot : int; at : Avdb_sim.Time.t }
      (** epoch class, acceptor side: a phase-1 promise granted to a
          takeover candidate without accepting a value yet — durable so a
          crashed acceptor cannot later accept a lower ballot *)
  | Epoch_floor of { item : string; epoch : int; at : Avdb_sim.Time.t }
      (** epoch class: state through this epoch was installed from a
          snapshot (join or quarantine repair), so this log holds no seals
          at or below it; {!max_contiguous_seal} counts from here *)

type entry = {
  txid : int;
  coordinator : Avdb_net.Address.t;
  cohort : Avdb_net.Address.t list;
      (** every site involved, coordinator included; [] if unknown *)
  item : string;
  delta : int;
  started_at : Avdb_sim.Time.t;
  mutable outcome : Two_phase.decision option;
  mutable finished_at : Avdb_sim.Time.t option;
  mutable ended : bool;  (** coordinator: all acks received *)
}

type t

val create : unit -> t

val record_start :
  t ->
  txid:int ->
  coordinator:Avdb_net.Address.t ->
  cohort:Avdb_net.Address.t list ->
  item:string ->
  delta:int ->
  at:Avdb_sim.Time.t ->
  unit
(** Raises [Invalid_argument] on a duplicate txid. *)

val record_outcome : t -> txid:int -> Two_phase.decision -> at:Avdb_sim.Time.t -> unit
(** Idempotent: only the first outcome is kept. Unknown txids are
    ignored (the prepare may have been refused before logging). *)

val record_end : t -> txid:int -> at:Avdb_sim.Time.t -> unit
(** Idempotent; unknown txids ignored. *)

val record_refused : t -> txid:int -> at:Avdb_sim.Time.t -> unit
(** Pledge never to vote Ready for [txid]. Idempotent. *)

(** {2 Epoch-quorum commit records} *)

type intent_entry = {
  in_txid : int;
  in_origin : Avdb_net.Address.t;
  in_item : string;
  in_delta : int;
  in_at : Avdb_sim.Time.t;
  mutable in_sealed : bool;  (** a logged seal contains this txid *)
}

val record_intent :
  t ->
  txid:int ->
  origin:Avdb_net.Address.t ->
  item:string ->
  delta:int ->
  at:Avdb_sim.Time.t ->
  unit
(** Idempotent on txid. *)

val record_epoch_accept :
  t -> item:string -> epoch:int -> ballot:int -> seal:intent list -> at:Avdb_sim.Time.t -> unit
(** Logged only when [ballot] exceeds the highest already accepted for
    (item, epoch); the index keeps the highest-ballot proposal. *)

val record_epoch_seal :
  t -> item:string -> epoch:int -> seal:intent list -> at:Avdb_sim.Time.t -> unit
(** Idempotent per (item, epoch). Marks every contained intent of this
    log as sealed. *)

val record_epoch_promise :
  t -> item:string -> epoch:int -> ballot:int -> at:Avdb_sim.Time.t -> unit
(** Logged only when [ballot] exceeds the highest already promised. *)

val record_epoch_floor : t -> item:string -> epoch:int -> at:Avdb_sim.Time.t -> unit
(** Logged only when [epoch] exceeds the current floor. *)

val intents : t -> intent_entry list
(** Sorted by txid. *)

val unsealed_intents : t -> intent_entry list
(** Intents no logged seal contains yet — the epoch class's in-doubt set,
    re-sent by recovery and counted by the quiescence invariant. *)

val epoch_accept : t -> item:string -> epoch:int -> (int * intent list) option
(** Highest-ballot accepted proposal for the epoch, as (ballot, seal). *)

val epoch_seal : t -> item:string -> epoch:int -> intent list option

val epoch_promise : t -> item:string -> epoch:int -> int
(** Highest ballot durably promised for (item, epoch), counting both
    promise-only and accept records; 0 when none. *)

val epoch_floor : t -> item:string -> int
(** The snapshot-install floor for [item]; 0 when none. *)

val epoch_seals : t -> (string * int * intent list) list
(** Every sealed (item, epoch, seal), sorted — the sealed-epoch agreement
    probe compares these across sites. *)

val max_contiguous_seal : t -> item:string -> int
(** Highest epoch e with seals floor+1..e all present — the applied
    prefix a recovering subscriber can trust (seals are logged atomically
    with their local apply, in epoch order). The floor on a fresh log is
    0. *)

val find : t -> txid:int -> entry option
val is_refused : t -> txid:int -> bool

val is_decided : t -> txid:int -> bool
(** [txid] has a logged outcome. *)

val entries : t -> entry list
(** Sorted by txid. *)

val in_doubt : t -> entry list
(** Entries with no outcome yet, sorted by txid — the set recovery must
    re-install. *)

val committed : t -> int
val aborted : t -> int
val in_flight : t -> int

val max_txid : t -> int
(** Largest txid among the entries, or [-1] on an empty log. An observer:
    recovery does not read it, and keeps a site's txid allocator above
    the txids its own entries and intents carry instead. *)

(** {2 Serialisation}

    One record per text line, replayable with {!of_string}; the same
    torn-tail rule as the WAL applies. *)

val records : t -> record list
(** In append order. *)

val length : t -> int
val encode_record : record -> string
val decode_record : string -> (record, string) result
val to_string : t -> string

val of_string : string -> (t, Avdb_store.Corruption.t) result
(** Replays a serialised log. An undecodable {e final} line is treated
    as a tail torn by a crash mid-append and dropped (the prefix is
    recovered); an undecodable line anywhere else is corruption and
    fails with its byte offset. *)

val pp_record : Format.formatter -> record -> unit
