(** The cluster: builds and owns a whole simulated system (Fig. 2) — site
    0 as the base (maker) plus retailers, with the product catalogue
    replicated to every local database "initially from the base" and the
    initial AV distributed per the configured allocation.

    The sites are sharded across [config.domains] OCaml domains by
    {!Placement} and executed by {!Avdb_sim.Parallel} in conservative
    barrier-stepped windows of one latency lower bound. Each shard owns a
    complete single-domain stack — engine, RPC, tracer, metrics
    registry — and the only cross-domain traffic is the lock-free mailbox
    of routed network messages drained at barriers. A single shard with
    no barrier hook skips the windows and runs its engine straight
    through. {!Cluster} is the single-shard view of this module.

    {b Determinism.} Shard seeds, the window grid and the rank-ordered
    mailbox drain are pure functions of (config, topology): a same-seed
    run yields byte-identical state and exports at any real-time
    interleaving of the domains. Shard 0 keeps the config seed.

    {b Threading contract.} Everything in this interface must be called
    with the domains quiescent — before the first {!run}, between runs,
    or from {!run}'s [on_round] barrier hook. Only the event handlers
    the shards execute (and the closures scheduled onto shard engines
    via {!schedule_at_site}) run on other domains, and
    each may touch only its own shard's sites and state. *)

type t

val create : Config.t -> t
(** Shards per [config.domains] (clamped to the site count). Raises
    [Invalid_argument] if {!Config.validate} fails. *)

val config : t -> Config.t

val topology : t -> Topology.t
(** The resolved shared topology: per-item bases, interest sets, AV
    hierarchy. *)

val placement : t -> Placement.t

val n_domains : t -> int
(** Effective shard count after clamping. *)

val n_sites : t -> int

val window : t -> Avdb_sim.Time.t
(** The lookahead window (the latency lower bound). *)

val site : t -> int -> Site.t

val sites : t -> Site.t array
(** A copy of the current membership, in site order. *)

val domain_of_site : t -> int -> int

val base_site_for : t -> item:string -> Site.t
(** The item's base (primary) site under the configured topology. *)

val subscribers : t -> item:string -> int list
(** Sorted indices of the sites replicating the item (base included);
    every site under full replication. *)

val interested : t -> site:int -> item:string -> bool

val now : t -> Avdb_sim.Time.t
(** The common virtual clock (all shard clocks are aligned whenever the
    domains are quiescent). *)

val run : ?until:Avdb_sim.Time.t -> ?on_round:(at:Avdb_sim.Time.t -> unit) -> t -> unit
(** Drains all shards to quiescence (bounded by [until]) on [n_domains]
    domains. [on_round] runs serially at every barrier with every other
    domain parked — the one place mid-run cross-shard reads are safe.
    Without [on_round], a single shard runs its engine straight through
    with no windows at all.

    When [snapshot_interval] is configured, every shard snapshots its
    own registry on that cadence from its own engine. The invariant
    probes (AV conservation, net-stats conservation) read every shard:
    a single shard runs them inside its snapshot tick ({!snapshot_now});
    with more shards they run at barriers on the same cadence. Every run
    also ends with one pass once the shards are quiescent. *)

val rounds : t -> int
(** Windows executed by the last {!run} (0 before the first, and 0 after
    a single-shard run without [on_round]). *)

val probes_run : t -> int
(** Number of invariant-probe passes executed so far. Every {!run} ends
    with one unconditional quiescence-time pass (in addition to any
    periodic passes), so this is ≥ the number of runs — a run shorter
    than one snapshot interval still gets its conservation checks. *)

val schedule_at_site :
  t -> site:int -> at:Avdb_sim.Time.t -> (unit -> unit) -> unit
(** Schedules a closure on the owning shard of [site] at virtual time
    [at]; the closure runs on that shard's domain and must only touch
    that shard's state. *)

val add_retailer :
  ?interest:string list -> t -> (int * (unit, Update.reason) result -> unit) -> int
(** Adds a retailer to the {e live} system: declares its interest set to
    the shared topology, places it on the shard that owns the base of its
    first interest item (shard 0 for an empty interest), registers it on
    that shard's network, bootstraps its local database from the
    (interest-scoped) catalogue with zero AV, and asynchronously fetches
    current data and sync state from each interest item's base
    ({!Site.join}). Returns the new site index immediately; the callback
    fires with the join outcome once the snapshot round-trips complete
    (run the cluster). The newcomer acquires AV on demand through
    ordinary circulation. [interest] defaults to
    {!Topology.default_joiner_interest} (the whole catalogue under full
    replication). The membership event is O(|interest| + shards): no
    address-list copy, no broadcast to existing sites, amortised O(1)
    appends. *)

(** {2 Fault injection}

    Network knobs are sender-side state: each call mirrors the change
    into every shard's network. The immediate variants apply now (only
    with the domains quiescent); the [_at] variants install the change
    at one virtual instant on every shard, for fault schedules armed
    before a run. Crash/recover a site by scheduling {!Site.crash} /
    {!Site.recover} onto its owning shard with {!schedule_at_site}. *)

val partition : t -> int -> int -> unit
(** Cuts both directions between two sites (by index). *)

val heal : t -> int -> int -> unit

val set_drop_probability : t -> float -> unit
(** Change the per-message loss rate mid-run; scripted fault scenarios use
    these to open and close a lossy window. *)

val set_duplicate_probability : t -> float -> unit
val set_reorder_probability : t -> float -> unit
val partition_at : t -> at:Avdb_sim.Time.t -> int -> int -> unit
val heal_at : t -> at:Avdb_sim.Time.t -> int -> int -> unit
val set_drop_probability_at : t -> at:Avdb_sim.Time.t -> float -> unit
val set_duplicate_probability_at : t -> at:Avdb_sim.Time.t -> float -> unit
val set_reorder_probability_at : t -> at:Avdb_sim.Time.t -> float -> unit

(** {2 Observability}

    Per-shard instruments (single-writer each) plus merged deterministic
    views. A site's [net.*] gauges come from its owning shard's stats:
    sends originate there and deliveries land there, but a drop charged
    by a peer shard's sender-side draw is visible only in the summed
    totals. *)

val engines : t -> Avdb_sim.Engine.t array
(** Per-shard engines in rank order. [Engine.now] / scheduling on shard
    [r]'s engine are safe only from that shard's own event handlers, or
    with the domains quiescent. *)

val net_stats : t -> Avdb_net.Stats.t array

val tracers : t -> Avdb_obs.Tracer.t array
(** Per-shard causal span collectors: update roots ("update"), AV
    acquisition and grants ("av"), RPC call/serve pairs linked across the
    wire ("rpc"), 2PC phases ("2pc"), lazy sync ("sync"), faults
    ("fault"), invariant violations ("invariant"). Export with
    {!Avdb_obs.Exporter}. *)

val registries : t -> Avdb_obs.Registry.t array
(** Per-shard metrics registries: every site's update counters, AV flow
    volumes and per-item AV levels, plus per-site network stats, sampled
    by {!snapshot_now} or the periodic snapshot when [snapshot_interval]
    is configured. A shard registers its sites' series the first time
    its registry is read: by this function, {!metric_samples},
    {!snapshot_now} or a {!run} that arms periodic snapshots. A site that
    joins later is registered at once if its shard's series exist. The
    first read registers every site in site order with joiners last, so
    the series are the same whenever it comes. Quiescent-only, like
    {!snapshot_now}. *)

val spans : t -> Avdb_obs.Span.t list
(** All shards' retained spans merged by [(start, id)] — byte-stable
    across same-seed runs thanks to per-shard id striding. *)

val metric_samples : t -> Avdb_obs.Registry.sample list

val snapshot_now : t -> unit
(** Runs the invariant probes (AV conservation per regular item — skipped
    while grant responses are in flight — and network stats
    conservation), recording any violation as a Warn span and a bump of
    the ["invariant.violations"] counter on shard 0;
    then appends one sample of every registered metric at the current
    sim-time, one registry per shard. Quiescent-only. *)

val total_correspondences : t -> int
(** Sum of per-site RPC correspondences (the paper's metric). *)

val per_site_correspondences : t -> (int * int) list
(** [(site_index, correspondences)], sorted. *)

val live_words_per_site : t -> (int * int) list
(** [(site_index, {!Site.live_words})] for every site — the scale bench's
    per-site footprint probe. *)

(** {2 Whole-system introspection (quiescent-only)} *)

val flush_all_syncs : t -> unit
(** Forces every site to broadcast its pending Delay Update deltas and
    pump its epoch-class state ({!Site.flush_epochs}), then drains the
    network — afterwards (absent message loss or down sites) replicas
    agree. The epoch pump keeps the event queues alive while any live
    site still holds unsealed intents, so the drain doubles as the epoch
    convergence wait. *)

val replica_amounts : t -> item:string -> int list
(** The item's amount at each {e subscribed} site, in site order — every
    site under full replication. *)

val av_sum : t -> item:string -> int
(** Σ over the item's subscribers of (available + held) AV. At quiescence
    with no in-flight grants this equals the item's globally-agreed amount
    when the initial AV equals the initial stock. *)

val av_conservation : t -> item:string -> (unit, string) result
(** Σ over sites of live AV (available + held) plus consumed volume, minus
    locally minted volume, must equal the initially defined volume. Grants
    move volume between sites without changing the sum, so — unlike replica
    agreement — this holds even before convergence, as long as no grant
    response is currently in flight or was permanently lost. *)

val decision_agreement : t -> (unit, string) result
(** Across every site's durable protocol log, each transaction id carries
    at most one outcome — a txid both committed somewhere and aborted
    somewhere else is a 2PC safety violation. Outcomes are logged before
    they are acted on, so this holds at {e every} instant, including
    mid-fault — no quiescence required. *)

val in_doubt_total : t -> int
(** Transactions without a logged outcome, summed over every site's protocol
    log. Zero at true quiescence with every site up. *)

val sealed_epoch_agreement : t -> (unit, string) result
(** Across every site's durable protocol log, each (item, epoch) carries
    at most one seal value ({!System_checks.sealed_epoch_agreement}).
    Holds at every instant, including mid-fault. *)

val unsealed_intent_total : t -> int
(** Epoch-class intents no seal contains yet, summed over all sites
    (quarantined items excluded). Zero at true quiescence with every
    subscriber quorum reachable. *)

val check_invariants : t -> (unit, string) result
(** At quiescence after {!flush_all_syncs} (no crashes, no message loss):
    for every regular item, all replicas agree (autonomous mode — in
    centralized mode only the base copy is authoritative) and the AV sum
    equals the replicated amount; AV entries are non-negative. *)
