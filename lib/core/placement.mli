(** Topology-aware assignment of sites to execution domains.

    The parallel engine pays for every cross-shard message, and nearly
    all traffic is confined to an item's subscriber set (sync, AV
    circulation, 2PC). This module splits the sites of a resolved
    {!Topology.t} into [n_domains] balanced shards while greedily
    co-locating each item's subscribers: a site lands on the domain that
    already holds most of its co-subscribers, subject to a per-domain
    cap of the balanced share.

    Deterministic: a pure function of (topology, n_domains) — no RNG —
    so a seeded configuration shards identically on every run. Sites
    that join later are appended with {!add_site}. *)

type t

val create : Topology.t -> n_domains:int -> items:string list -> t
(** [items] is the catalogue the topology was created with, in the same
    order: the greedy pass reads each site's items through
    {!Topology.interest}'s positions into it. [n_domains] is clamped to
    the site count. Raises [Invalid_argument] when [n_domains < 1]. *)

val n_domains : t -> int
(** The effective domain count (after clamping). *)

val n_sites : t -> int
(** Sites placed so far: the initial ones plus every {!add_site}. *)

val domain_of : t -> int -> int
(** Owning domain of a site index. *)

val sites_of : t -> int -> int array
(** Ascending site indices owned by a domain. The arrays partition
    [0 .. n_sites - 1]. *)

val add_site : t -> domain:int -> int
(** Places the next site index on [domain] and returns that index.
    Amortised O(1). *)

val cross_items : t -> int
(** Items whose subscriber set spans more than one domain at creation —
    each is a source of cross-shard traffic. 0 means the shards never
    exchange messages through the item protocols. *)

val pp : Format.formatter -> t -> unit
