(** Delay Update's lazy-propagation bookkeeping, both directions.

    {b Sender.} Every regular item this site ever changed has a counter
    [(version, cum)]: [cum] is the cumulative net local delta and
    [version] the site-wide sequence number of its latest change. A
    payload for a peer carries every counter stamped after the peer's
    acknowledgement, name-sorted. Counters live in a ring ordered by
    version, so a payload walks only the counters newer than the
    acknowledgement instead of the whole catalogue. Next to each peer's
    acknowledgement sits its sent mark, the sequence number at the last
    notice sent to it: an unforced flush notifies a peer only when a
    counter on its items is stamped after both. {!queue} never
    touches the ring: it pushes a counter on a dirty list the first time
    the counter changes after the last payload build, and the next build
    moves the dirty counters to the ring's newest end. Invariant: every
    counter stamped at or before the last build sits in the ring in
    ascending version order; every later one is on the dirty list, once,
    and also still in the ring if a build had linked it before.

    The caller keeps each item's counter (a site keeps it in the item's
    record), and [t] keeps no table of them: it reaches them through the
    ring and the dirty list only. A counter holds its item's AV entry,
    given when it is made, and its subscriber array, taken on first use
    and again once the topology version has moved, so a flush tests who
    replicates an item and reads its AV level without resolving the item
    by name.

    {b Peers.} Each peer site has one {!peer} entry, for both directions:
    its acknowledgement and sent mark as a receiver of this site's
    counters, and the highest version applied from it as an origin. A
    flush audience is a list of these entries, so a flush resolves no peer
    by site either.

    {b Receiver.} Per origin site, the highest version applied from it: a
    complete cumulative acknowledgement, because every payload carries the
    origin's whole unacknowledged backlog. The last [(version, cum)]
    applied from each origin for an item is that item's {!stamps}, which
    the caller keeps with the item (a site keeps them in the item's
    record), so a receiver that has found the item reads and advances
    them with int-keyed lookups only.

    Counters, peer entries and applied stamps survive crashes (trusted
    metadata, like the AV table). *)

type t

val create : unit -> t

type counters = (string * int * int) list
(** [(item, version, cum)], name-sorted: the wire form of
    {!Protocol.Sync_counters}. *)

(** {2 Sender} *)

type counter
(** One item's counter. Counters are never removed and survive crashes,
    so a counter, once made, is the item's for the life of the [t]. *)

val make_counter : item:string -> av:Avdb_av.Av_table.entry -> counter
(** A new counter for [item], which keeps the item's AV entry
    ([Av_table.no_entry] for an item without AV). Made at the item's
    first local change: no [t] sees it before its first {!queue}, so
    {!count}, {!audience} and {!own_state} never see one that no delta
    stamped. Make one counter per item and queue it on one [t] only. *)

val no_counter : counter
(** A shared placeholder that is no item's counter: a holder keeps it
    until it makes the item's counter. Its {!version} and {!cum} read 0,
    and {!queue} refuses it. *)

val queue : t -> counter -> delta:int -> unit
(** Record one committed local delta: bumps the sequence number and
    restamps the counter. O(1); allocates only on the counter's first
    change since the last payload build. Raises [Invalid_argument] on
    {!no_counter}. *)

val seq : t -> int
(** The latest sequence number (0 before the first {!queue}). *)

val count : t -> int
(** Number of counters queued (items ever changed here). *)

val version : counter -> int
(** Stamp of the item's latest local change; 0 if never changed. *)

val cum : counter -> int
(** Cumulative net local delta on the item; 0 if never changed. *)

val owes_flush : t -> bool
(** Whether a flush is owed: a change since the last {!start_flush}, or
    a [sync_fanout] rotation that has not yet reached every peer. *)

type peer
(** What this site knows of one peer site: the peer's acknowledgement of
    this site's counters and its sent mark, and the highest version
    applied from the peer. One entry per peer site, made on first use and
    never removed, so an entry, once found, is the peer's for the life of
    the [t]. *)

val peer : t -> site:int -> peer
(** The site's entry, made on the first call for the site: one int-keyed
    lookup. *)

val peer_address : peer -> Avdb_net.Address.t

val peer_high : peer -> int
(** The highest version applied from the peer ({!applied_high}): the one
    ack a notice to the peer carries. *)

val start_flush : t -> force:bool -> fanout:int option -> peer list -> peer list
(** [start_flush t ~force ~fanout audience] marks every counter as
    broadcast and returns the peers this flush notifies: all of
    [audience] when [force] or without a fanout, otherwise the next [k]
    of a round-robin rotation. A burst of changes restarts the rotation,
    which then owes [ceil (n / k) - 1] further flushes. *)

val unflushed : t -> (string * int) list
(** [(item, cum)] for the counters changed since the last {!start_flush},
    name-sorted. *)

val note_conveyed : peer -> upto:int -> unit
(** Record that the peer holds every counter stamped up to [upto] (the
    ack on the peer's notice, or the seq a piggyback covered when its
    reply arrives); lower values than the peer's current ack are
    ignored. *)

val payloads :
  t ->
  force:bool ->
  Topology.t ->
  peer list ->
  'a ->
  ('a -> peer -> counters -> (string * int) list -> unit) ->
  bool
(** [payloads t ~force topology targets ctx send] calls
    [send ctx peer counters av_info] for each target, in order, that has
    news, raises its sent mark, and returns whether it called [send].
    The payload is the counters stamped after the peer's acknowledgement
    (after 0 when [force]) on items the peer replicates, and [av_info]
    the available AV, read through each counter's entry, on those of its
    items that have AV, in the same order. Unforced, a target has news when one of those
    counters is stamped after its sent mark too; the test walks only the
    counters newer than both numbers, reads their subscriber memos and
    allocates nothing. Forced, every target with a non-empty payload is
    sent it. Builds one name-sorted slice of the counters newer than the
    smallest acknowledgement among the targets sent to; every payload is
    cut from it through the counters, so nothing is resolved by item name
    or by site. [send] takes its context as [ctx], so a caller
    that passes a top-level function allocates no closure. *)

val payload : t -> Topology.t -> Avdb_net.Address.t -> counters
(** The single-peer, unforced payload (an AV-request or grant
    piggyback). *)

val audience : t -> Topology.t -> self:int -> peer list
(** The peers a flush considers, [self] excluded, in site order: under full
    replication every one of the topology's {!Topology.n_sites} sites,
    cached until that count changes; under partial replication the union
    of the subscribers of every counter's item, read from the counters'
    subscriber memos and cached until the topology version or the counter
    count changes. *)

val own_state : t -> want:(string -> bool) -> (string * int * int) list
(** [(item, version, cum)] for every counter on a wanted item, each once,
    in no particular order. Like {!audience}, it walks the ring and the
    dirty list and leaves both as they are. *)

(** {2 Receiver} *)

type stamps
(** One item's applied stamps: for each origin site, the [(version, cum)]
    of the last counter applied from it for the item. An origin's stamp,
    once made, is updated in place. *)

val no_stamps : stamps
(** No origin's stamp: where an item's stamps start. Allocates nothing. *)

type stamp
(** One origin's stamp on one item, found once. *)

val stamp : stamps -> origin:int -> stamp
(** The origin's stamp, or a shared zero stamp (version 0, cum 0) when it
    has none yet. One int-keyed lookup; allocates nothing. *)

val stamp_version : stamp -> int
val stamp_cum : stamp -> int

val restamp : stamps -> stamp -> origin:int -> version:int -> cum:int -> stamps
(** [restamp stamps st ~origin ~version ~cum], where [st] is
    [stamp stamps ~origin], sets the origin's stamp and returns the item's
    stamps: [stamps] itself, updated in place, when the origin had a
    stamp; with a new stamp added when it had none. A counter applied
    from [origin] is fresh when its version exceeds [stamp_version st],
    and applying it adds its cum minus [stamp_cum st]. *)

val applied_version : stamps -> origin:int -> int
(** Version of the last counter applied from [origin]; 0 before the
    first. *)

val applied_total : stamps -> int
(** Sum over origins of the last applied [cum]: the remote share of the
    item's committed amount. *)

val fold_stamps : stamps -> init:'a -> f:('a -> int -> int -> int -> 'a) -> 'a
(** [f acc origin version cum] over every origin's stamp, by origin. *)

val raise_high : peer -> int -> unit
(** Raise the peer's high-water mark to a version applied or seeded from
    it: once per applied batch, to the batch's highest version, and once
    per seeded stamp. Lower values are ignored. *)

val applied_high : t -> origin:int -> int
(** The highest version applied from [origin]; 0 before the first. A
    complete cumulative acknowledgement of [origin]'s counters up to it,
    and the one ack a notice to [origin] carries ({!peer_high}). O(1)
    expected: one int-keyed lookup. *)
