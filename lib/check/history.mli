(** Execution histories for the consistency oracle.

    A history is the client-visible record of one run: every submitted
    operation as an {e invocation}/{e response} pair with virtual
    timestamps, plus the crash/recover fault events. The
    {{!wrappers} instrumented client wrappers} perform a site operation
    {e and} record both ends — the recommended way to drive a checked
    workload (the nemesis harness and [avdb_sim_cli --check] use these).
    Whoever injects a fault records it with {!record_fault} beside the
    {!Avdb_core.Site.crash} / {!Avdb_core.Site.recover} call: the crash
    just before it, the recovery just after.

    Entries carry two orderings: virtual-time stamps (for intervals and
    real-time precedence) and a global record sequence ([inv_seq] /
    [resp_seq]) that breaks same-instant ties with the actual execution
    order of the single-threaded simulation. The checker's precedence
    relation is built on the sequence numbers. *)

type op =
  | Update of { item : string; delta : int }
      (** {!Avdb_core.Site.submit_update} — Delay, Immediate or Central
          depending on the item's class and the cluster mode; the response
          reports which path ran *)
  | Batch of { deltas : (string * int) list }
      (** {!Avdb_core.Site.submit_batch} — atomic multi-item Delay Update *)
  | Read_local of { item : string }
  | Read_auth of { item : string }

type resp =
  | Applied of Avdb_core.Update.kind
  | Rejected of Avdb_core.Update.reason
  | Read_value of int option
  | Read_failed of Avdb_core.Update.reason

type entry = {
  id : int;  (** dense, in invocation order *)
  site : int;
  op : op;
  inv_seq : int;  (** global record order of the invocation *)
  invoked_at : Avdb_sim.Time.t;
  mutable resp_seq : int;  (** global record order of the response; -1 while pending *)
  mutable responded_at : Avdb_sim.Time.t;  (** meaningful only once responded *)
  mutable resp : resp option;
  mutable n_responses : int;
      (** responses recorded; 0 = still pending, > 1 = double-fired
          continuation (itself a violation the checker reports) *)
}

type fault_kind = Crashed | Recovered
type fault = { f_site : int; f_at : Avdb_sim.Time.t; f_seq : int; f_kind : fault_kind }

type t

val create : unit -> t

val entries : t -> entry list
(** In invocation order. *)

val faults : t -> fault list
(** In record order. *)

val length : t -> int

(** {2 Low-level recording} *)

val invoke : t -> site:int -> at:Avdb_sim.Time.t -> op -> entry
val respond : t -> entry -> at:Avdb_sim.Time.t -> resp -> unit
val record_fault : t -> site:int -> at:Avdb_sim.Time.t -> fault_kind -> unit

(** {2:wrappers Instrumented client wrappers} *)

val submit_update :
  t ->
  engine:Avdb_sim.Engine.t ->
  Avdb_core.Site.t ->
  item:string ->
  delta:int ->
  (Avdb_core.Update.result -> unit) ->
  unit

val submit_batch :
  t ->
  engine:Avdb_sim.Engine.t ->
  Avdb_core.Site.t ->
  deltas:(string * int) list ->
  (Avdb_core.Update.result -> unit) ->
  unit

val read_local :
  t -> engine:Avdb_sim.Engine.t -> Avdb_core.Site.t -> item:string -> int option
(** Synchronous, like {!Avdb_core.Site.read_local}; the entry responds
    within the call. *)

val read_authoritative :
  t ->
  engine:Avdb_sim.Engine.t ->
  Avdb_core.Site.t ->
  item:string ->
  ((int option, Avdb_core.Update.reason) result -> unit) ->
  unit
(** The continuation may be swallowed by a crash (the underlying read is
    not crash-tracked); the entry is then left pending, which the checker
    treats as a no-op. *)

val merge : t list -> t
(** Merges per-shard histories from a parallel run (one single-writer
    recorder per shard, listed in shard-rank order) into one totally
    ordered history: all invocations, responses and faults replayed
    sorted by (virtual time, shard rank, shard-local seq). Respects
    every shard's local order, preserves timestamps and double-response
    counts, renumbers entries — and is deterministic, so two same-seed
    parallel runs merge to identical histories. *)

val pp_op : Format.formatter -> op -> unit
val pp_resp : Format.formatter -> resp -> unit
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
(** The whole history, one line per entry — counterexample output. *)
