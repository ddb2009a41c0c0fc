(** Test-only fault seeding: known-bad behaviors kept behind global flags.

    Each constructor re-enables a deliberately broken variant of one
    mechanism — bugs this codebase either shipped once or could plausibly
    regress into. They exist solely so the consistency oracle
    ({!Avdb_check.Checker}) can be {e negatively} tested: a checker that
    never rejects anything is vacuous, so the mutation suite flips each
    flag, replays a scenario and asserts the oracle convicts it.

    All flags default to off and are process-global (the simulation is
    single-threaded); tests must {!reset} in a teardown. Production code
    paths read the flags through {!enabled}, which compiles to one load
    and branch. *)

type t =
  | Lossy_sync
      (** the receiver of a lazy-sync counter records the version as
          applied but drops the datum — the delta is permanently lost, so
          replicas never converge (a deliberately lossy counter) *)
  | Double_deposit
      (** a requester credits a received AV grant twice, conjuring volume
          out of thin air — breaks exact AV conservation *)
  | Unilateral_abort
      (** a prepared participant whose decision timer fires aborts on its
          own instead of running the termination protocol — the unsafe
          abort-pending path the participant once had; violates 2PC
          agreement and replica convergence *)
  | Stale_reads
      (** the base serves {!Protocol.Read_request} from the initial
          catalogue amount instead of its live replica — authoritative
          reads stop being linearizable *)
  | Forget_own_writes
      (** a local read subtracts the site's own not-yet-flushed deltas —
          the replica "forgets" writes the same session already committed,
          violating read-your-writes *)
  | Epoch_double_seal
      (** the epoch sequencer applies the deltas of an epoch it sealed
          twice — its replica runs ahead of every other subscriber's,
          breaking epoch-order convergence *)
  | Epoch_drop_intent
      (** a non-sequencer subscriber skips the first intent of every seal
          it applies — one delta is lost at that replica only, breaking
          epoch-order convergence *)

val all : t list
val name : t -> string
val of_name : string -> (t, string) result

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

val reset : unit -> unit
(** Turns every flag off. *)
