(** A site: local database + accelerator (§3).

    The accelerator implements the paper's three protocols:

    - {e Delay Update} for regular products: the checking function finds AV
      defined on the item; negative deltas consume local AV, acquiring more
      from peers (selecting/deciding functions of the configured
      {!Avdb_av.Strategy.t}) only on shortage; positive deltas create AV
      locally. Applied deltas propagate lazily via periodic
      [Sync_deltas] notices when [sync_interval] is configured.
    - {e Immediate Update} for non-regular products: primary-copy 2PC with
      this site as coordinator; user-visible completion on the base
      site's acknowledgement.
    - {e Centralized} baseline mode: every update round-trips to the base
      (base-local updates apply directly).

    Epoch-class items add a third update class, epoch-quorum commit.

    Sites are built by {!Cluster}; this interface is what examples and
    benches drive. The implementation is a façade over one private
    module per protocol on a shared site context (DESIGN.md §4, "Site
    layout"). *)

type role = Maker | Retailer

type t

val addr : t -> Avdb_net.Address.t
val role : t -> role
val base : t -> Avdb_net.Address.t
val database : t -> Avdb_store.Database.t
val av_table : t -> Avdb_av.Av_table.t
(** The site's AV table, for reading and for moving volume. Only {!create}
    defines AV: each item's record takes the item's entry once, so AV
    defined on the table later would reach no record. *)

val peer_view : t -> Avdb_av.Peer_view.t
val metrics : t -> Update.Metrics.t
val txn_log : t -> Avdb_txn.Txn_log.t

val stock_table : string
(** Name of the replicated stock table (["stock"]). *)

val amount_of : t -> item:string -> int option
(** Current local replica amount for an item, read through the item's
    record (built on its first read, as on its first update). [None] for
    items outside this site's interest set — an unsubscribed site holds
    no row at all. *)

val interested_in : t -> item:string -> bool
(** Whether this site subscribes to the item (always true under full
    replication). *)

val live_words : t -> int
(** Heap words reachable from the site's replica and protocol state
    (stock rows, AV ledger, peer view, sync counters, the per-item
    records of the items it has used or read, with their peer lists);
    excludes the WAL, which grows with update count rather than
    catalogue size. Under partial replication this is bounded
    by the interest set, not the global item count. *)

val submit_update : t -> item:string -> delta:int -> (Update.result -> unit) -> unit
(** Submits a user update at this site. The continuation fires exactly
    once, possibly synchronously for purely local Delay Updates. Updates
    submitted at a crashed site are rejected [Unreachable]. *)

val read_local : t -> item:string -> int option
(** The site's replica value: zero communication, possibly stale until the
    next lazy sync (the retailer's real-time requirement). Same as
    {!amount_of}. *)

val read_authoritative :
  t -> item:string -> ((int option, Update.reason) result -> unit) -> unit
(** Reads the base (primary) replica: one correspondence from a retailer,
    free at the base (the maker's consistency requirement). [Ok None]
    means the base does not know the item, or holds it quarantined after
    storage damage — at the base itself as from any retailer. *)

val submit_batch : t -> deltas:(string * int) list -> (Update.result -> unit) -> unit
(** Atomic multi-item Delay Update at this site: acquires AV for every
    negative delta (transferring from peers as needed), then applies all
    deltas in one local storage transaction - all or nothing. Duplicate
    items are coalesced by summing. Every item must be a regular product
    (AV defined); non-regular items reject with [Not_regular], unknown
    ones with [Unknown_item]. Only available in autonomous mode
    ([Unreachable] in centralized mode or when the site is down). *)

val flush_sync : ?force:bool -> t -> unit
(** Immediately sends pending Delay Update counters to the peers that do
    not have them yet (flushes are otherwise debounced: the first pending
    delta arms one flush [sync_interval] later). Counters a peer has
    acknowledged through an AV-grant piggyback are omitted, and a fully
    caught-up peer is skipped. [~force:true] broadcasts every counter to
    every peer regardless — the convergence flush used at quiescence and
    after recovery, which must not trust optimistic delivery state. *)

val pending_sync_deltas : t -> (string * int) list
(** Cumulative net per-item counters whose latest local change has not yet
    been broadcast, sorted by item. Empty exactly when every local delta
    has been through at least one flush. *)

(** {2 Epoch-quorum commit} *)

val flush_epochs : t -> unit
(** Epoch-class analogue of [flush_sync ~force:true]: per epoch item, one
    immediate pump step (propose / take over / re-send intents, as the
    rotation dictates) plus a seal re-broadcast to lagging subscribers.
    Driven repeatedly at quiescence so a cluster with in-flight epoch
    intents converges without waiting out pump ticks. *)

val epoch_applied : t -> item:string -> int option
(** Highest contiguously applied epoch for [item] at this site; [None]
    when the site does not subscribe to [item] or [item] is not
    epoch-class. *)

val epoch_unsealed : t -> int
(** Number of this site's own durably logged intents no logged seal
    contains yet — the epoch class's in-doubt set, which the quiescence
    invariant requires to reach zero (quarantined items excluded). *)

(** {2 Consistency-lag probe inputs} *)

val sync_version : t -> item:string -> int
(** Stamp of this site's latest local change to [item] (0 if it never
    changed the item): what a fully caught-up replica of this site would
    have applied. *)

val applied_sync_version : t -> origin:int -> item:string -> int
(** Stamp of the latest sync counter this replica has applied from site
    [origin] for [item] (0 before the first). The difference
    [sync_version origin_site ~item - applied_sync_version replica
    ~origin ~item] is a monotone per-item staleness measure that reaches
    0 at convergence. *)

val last_sync_apply : t -> Avdb_sim.Time.t option
(** When this replica last applied any peer's sync counters; [None]
    before the first apply. Time since then is the replica-freshness
    ("apply age") probe. *)

val join : t -> ((unit, Update.reason) result -> unit) -> unit
(** Fetches the base's current replica and sync state — the paper's
    "initial delivery from the base" — used by {!Cluster.add_retailer}
    when a site enters a live system. A no-op [Ok] at the base itself. *)

(** {2 Fault injection} *)

val crash : t -> unit
(** Marks the site down: its messages are lost, peers' calls to it time
    out, its own submissions are rejected. In-memory protocol state for
    in-flight coordinations is abandoned, and the site's incarnation
    epoch is bumped so every continuation scheduled by the old
    incarnation (RPC completions, 2PC timeouts, sync-flush timers) is
    fenced: it fires in the event queue but no-ops instead of touching
    the next incarnation's state. Submissions still awaiting an outcome
    fail immediately with [Rejected Unreachable] — the colocated client
    observes its server die; its callback never fires twice. *)

val recover : t -> unit
(** Brings the site back as a {e new incarnation} (the epoch is bumped
    again). The local database is rebuilt from its write-ahead log
    (committed state only) — an in-flight local transaction at crash
    time is lost, exactly as on a real restart — and in-doubt 2PC state
    is re-installed from the durable protocol log:

    - a prepared (Ready-voted, undecided) participant transaction
      re-acquires its lock, redoes the tentative write and resumes the
      termination protocol (query the coordinator, then the base and
      fellow cohort members) until the outcome is known — it is never
      aborted unilaterally;
    - an own coordination without a logged outcome is presumed aborted
      (the outcome record always precedes the Commit broadcast) and the
      abort is pushed to the cohort;
    - an own coordination with a logged decision but an unfinished ack
      round re-broadcasts the decision (bounded rounds, paced by
      [rebroadcast_interval]) until every participant acknowledges. Its
      user continuation never re-fires — the client died with the old
      incarnation.

    Transient state is reset as before: AV held by abandoned operations
    returns to the available pool, and the lazy-sync timer is re-armed
    if deltas are still pending. *)

val is_down : t -> bool

val arm_disk_fault :
  t -> target:[ `Wal | `Txn ] -> Avdb_store.Disk_fault.spec -> unit
(** Arms a storage fault against the write-ahead log ([`Wal]) or the 2PC
    protocol log ([`Txn]). The fault takes effect at the {e next} [crash]:
    the in-memory log image is serialized through the faultable disk,
    damaged per the spec, and the following [recover] reads the damaged
    image back instead of the trusted in-memory state. Arming replaces any
    previously armed fault on the same target; with nothing armed, crash
    and recover behave exactly as before (zero-cost fault-free path). *)

val is_quarantined : t -> item:string -> bool
(** True while the site's replica of [item] is known-untrustworthy after a
    storage fault. A quarantined replica rejects reads and new updates on
    the item and votes Refuse on 2PC prepares (corruption costs
    availability, never consistency) until repair from a donor completes. *)

val quarantined_items : t -> string list
(** All currently quarantined items, sorted. Empty on a healthy site. *)

val is_amnesiac : t -> bool
(** True once the site has ever lost synced protocol-log records to a
    storage fault. Sticky across incarnations: after amnesia, a missing
    log entry no longer implies "never happened", so the site answers
    decision queries with [No_record]/[Still_pending] rather than
    presuming abort, and never pledges [Peer_will_refuse]. *)

(** {2 Internal — used by Cluster} *)

type shared = {
  engine : Avdb_sim.Engine.t;
  rpc : (Protocol.request, Protocol.response, Protocol.notice) Avdb_net.Rpc.t;
  config : Config.t;
  topology : Topology.t;
      (** resolved per-item bases, interest sets and AV hierarchy — the
          single cluster-wide copy every site consults *)
  catalogue : Product.t array;
      (** [config.products] in order, indexed by the catalogue positions
          {!Topology.interest} returns; one array per cluster *)
  mutable n_members : int;
      (** membership count; site [i] has address [i], so a join is an O(1)
          bump instead of an O(N) address-list copy *)
  tracer : Avdb_obs.Tracer.t;
      (** causal span collector shared by every site and the RPC layer *)
}

val create : shared -> addr:Avdb_net.Address.t -> av_init:(string * int) list -> t
(** Builds the site, loads its interest set of the catalogue into its
    local database (O(interest), in catalogue order), defines AV per
    [av_init] (regular items only, autonomous mode only) and registers its
    RPC handlers. *)
