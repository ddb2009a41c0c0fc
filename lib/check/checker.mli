(** The history checker: judges one recorded run against the {!Model}.

    Given a {!History.t} (every client-visible operation, captured by the
    instrumented wrappers) and a {!snapshot} of the cluster's end state, the
    checker validates the three guarantees the paper's protocols owe their
    clients:

    - {b Linearizability of strong operations.} Immediate Updates,
      centralized-baseline updates and authoritative (base) reads of
      non-regular items must admit a total order consistent with real time
      in which every committed write steps the {!Model.register} legally and
      every read returns the register's value. The search is a Wing &
      Gong-style exhaustive interleaving, partitioned by item (updates are
      single-item, so items linearize independently) and memoized on the
      set of linearized operations (sound because deltas commute). An
      operation whose fate the client never learned — rejected
      [Unreachable] mid-2PC, or still pending — {e may} have committed and
      is placed optionally with an open-ended interval. The end-state base
      value joins the search as a virtual final read, so a committed write
      that is missing from the primary copy is caught even without a
      subsequent client read.

    - {b Convergence and AV conservation at quiescence.} Regular items
      must agree across every replica, and the agreed value must equal the
      model's replay of exactly the applied Delay Updates — no more, no
      less. The AV books must balance: defined + minted − consumed − live
      is never negative, equals the measured grant/receive leak in flight,
      and minted/consumed must equal what the history says positive and
      negative Delay Updates created and destroyed.

    - {b Session guarantees and replica-read validity.} A local read must
      reflect {e all} of the reading site's own earlier committed Delay
      Updates (read-your-writes) plus some per-origin {e prefix} of every
      other site's committed deltas (the cumulative sync counters make
      anything else unreachable). Authoritative reads of regular items obey
      the same rule with the base as the "own" site. A value outside the
      reachable set is a stale or corrupted read.

    - {b Epoch-quorum convergence.} Epoch-class items commit through the
      asynchronous epoch sequencer, so they are neither strong nor Delay:
      at quiescence every non-quarantined holder must expose the same
      sealed prefix, and the agreed value must equal initial + every
      definitely-applied delta ([Applied Epoch]) + some subset of the
      ambiguous ones (submissions rejected [Unreachable] or never
      answered — a logged intent can seal after the client gave up).
      Negative stock is legal for this class (writers never coordinate
      before committing), and reads get the weak subset check.

    Double-fired continuations are reported as violations in their own
    right. The checker assumes the history captured {e every} client
    operation of the run — drive workloads through the {!History}
    wrappers. *)

(** {2 End-state snapshot} *)

type snapshot = {
  mode : Avdb_core.Config.mode;
  products : Avdb_core.Product.t list;
  replicas : (string * int option list) list;
      (** per item, each {e replica-holding} site's value — the base's
          first, then the remaining subscribers in site order (every site,
          under full replication) *)
  bases : (string * int) list;
      (** per item, its base (primary) site index; [[]] means the legacy
          single base, site 0 — manual snapshots for flat topologies can
          leave it empty *)
  books : (string * Model.books) list;  (** per regular item, autonomous mode *)
  granted : int;  (** Σ sites' AV volume granted to peers *)
  received : int;  (** Σ sites' AV volume received from peers *)
  amnesiac : int list;
      (** sites that ever lost synced protocol-log records to a storage
          fault ({!Avdb_core.Site.is_amnesiac}). An authoritative read of a
          2PC item answered [None] by an amnesiac base is judged
          unavailability (the item was quarantined), not staleness.
          Quarantined replica holders are already excluded from
          [replicas]. [[]] for manual snapshots. *)
}

val snapshot_of_cluster : Avdb_core.Cluster.t -> snapshot
(** Reads replicas, AV ledgers and grant-flow counters from a cluster at
    any shard count — take it at quiescence, with the domains joined
    (after {!Avdb_core.Pcluster.flush_all_syncs}). *)

val snapshot_of_parts :
  config:Avdb_core.Config.t ->
  topology:Avdb_core.Topology.t ->
  sites:Avdb_core.Site.t array ->
  snapshot
(** The generic form both of the above delegate to. *)

(** {2 Verdict} *)

type violation =
  | Double_response of { entry : History.entry }
      (** a continuation fired more than once *)
  | Non_linearizable of { item : string; ops : History.entry list }
      (** no legal total order exists; [ops] is the minimal
          (completion-order) failing prefix of the item's operations *)
  | Divergence of { item : string; values : int option list; expected : int option }
      (** at quiescence: replicas disagree, or agree on a value other than
          the model's replay ([expected], when the model pins one down) *)
  | Negative_amount of { item : string; site : int; value : int }
      (** a quiesced replica holds negative stock; [site] is the position
          in the snapshot's (base-first) replica list *)
  | Stale_read of { read : History.entry; item : string; value : int option }
      (** a replica read outside the reachable set: it misses the reading
          site's own committed writes, or shows a value no combination of
          per-origin prefixes can explain *)
  | Av_imbalance of { item : string option; message : string }
      (** the AV books do not balance ([item = None] for the cross-site
          grant-flow check) *)

type stats = {
  n_entries : int;
  n_strong_items : int;  (** items that went through the linearizability search *)
  n_lin_ops : int;  (** strong operations linearized *)
  lin_skipped : string list;  (** items skipped: > {!max_lin_ops} operations *)
  n_replica_reads : int;  (** local/authoritative replica reads validated *)
  n_reads_skipped : int;  (** reads skipped: reachable set exceeded the cap *)
}

type verdict = { violations : violation list; stats : stats }

val ok : verdict -> bool

val max_lin_ops : int
(** Per-item operation cap of the linearizability search (the memo is a
    bitmask): 62. Items beyond it are reported in [stats.lin_skipped]. *)

val check : ?quiescent:bool -> history:History.t -> snapshot -> verdict
(** Runs every check. [quiescent] (default [true]) states that the run
    drained to quiescence with all sites up, syncs force-flushed and
    in-doubt transactions resolved — the convergence, conservation and
    end-state checks are only sound then, and are skipped when [false]. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_verdict : Format.formatter -> verdict -> unit
