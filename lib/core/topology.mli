(** Per-item base-site sharding, partial replication and hierarchical AV
    circulation.

    The paper's evaluation hardwires one base (site 0) that coordinates
    every item and full replication of the whole catalogue at every site.
    Neither survives N = 1000: this module makes both a configuration
    dimension.

    - {e Base assignment}: which site is an item's primary (coordinates
      Centralized and Immediate updates, serves authoritative reads,
      anchors the termination protocol). [Hashed_base] shards items over
      the initial membership so no single site coordinates everything.
    - {e Replication}: which sites hold an item's replica at all. Under
      [Scattered k] each item lives at its base plus [k - 1] hash-chosen
      other sites; everyone else neither stores the row nor receives sync
      for it, so per-site live state is bounded by the interest set.
    - {e Hierarchy}: an optional [f]-ary tree over each item's subscriber
      ranks (base = root). A cold-cache AV request climbs to the site's
      tree parent instead of every site hammering the item's base.

    One resolved [t] is shared by all sites of a cluster; it is the only
    O(items × spread) structure, and there is exactly one copy. *)

type base_assignment =
  | Fixed_base of int  (** one site coordinates every item (legacy: 0) *)
  | Hashed_base  (** item name hashes to a base over the initial membership *)

type replication =
  | Full  (** every site replicates every item (legacy) *)
  | Scattered of int
      (** each item is replicated at its base plus [k - 1] other
          deterministically hash-chosen sites ([k] total, clamped to N) *)
  | Explicit of (string * int list) list
      (** item -> subscriber site indices (the base is always added);
          unlisted items replicate at their base only *)

type spec = {
  base_assignment : base_assignment;
  replication : replication;
  hierarchy_fanout : int option;
      (** [Some f]: AV requests climb an [f]-ary tree over each item's
          subscribers toward the base. [None]: flat (legacy). *)
}

val flat : spec
(** The paper's topology: base 0, full replication, no hierarchy. *)

val sharded : ?spread:int -> ?hierarchy_fanout:int -> unit -> spec
(** Hashed bases + [Scattered spread] (default 3). *)

val validate_spec : spec -> n_sites:int -> (unit, string) result

type t

val create : spec -> n_sites:int -> items:string list -> t
(** Resolves the spec against the initial membership [0 .. n_sites - 1]
    and the catalogue. Raises [Invalid_argument] on an invalid spec or an
    explicit subscriber index out of range. *)

val spec : t -> spec
val n_sites : t -> int

val version : t -> int
(** Bumped by every {!register_joiner}; per-site subscriber caches key on
    it instead of being invalidated by broadcast. *)

val is_full : t -> bool
(** [true] iff replication is [Full] — callers can skip per-item filters. *)

val base_index : t -> item:string -> int
(** The item's base (primary) site index. Total: items outside the
    catalogue hash to a stable base too. *)

val interested : t -> site:int -> item:string -> bool
(** Does [site] replicate [item]? The base of an item is always
    interested. *)

val subscribers : t -> item:string -> int list
(** Sorted site indices replicating the item (the base included). *)

val subscriber_count : t -> item:string -> int

val iter_subscribers : t -> item:string -> (int -> unit) -> unit
(** [f] on each of {!subscribers} in ascending order, without building a
    list or, under [Full], an array. *)

val subscriber_array : t -> item:string -> int array
(** {!subscribers} as an ascending array, to resolve an item once and test
    many sites against it with {!subscribes}. Under partial replication it
    is the topology's own array, not a copy: do not mutate it. Under
    [Full] it is built afresh on every call. *)

val subscribes : int array -> site:int -> bool
(** Whether [site] is in a {!subscriber_array}: a scan of a spread-sized
    array, with no hashing and no allocation. *)

val interest : t -> site:int -> int array
(** The site's interest set as ascending positions in the [items] given
    to {!create}: exactly the positions whose item {!interested} accepts.
    Resolved once by {!create} from the subscriber arrays and extended by
    {!register_joiner}, so building a site costs O(interest), not
    O(catalogue). Under [Full] every site gets the same whole-catalogue
    array and nothing is stored per site. The array is shared: do not
    mutate it. *)

val rank : t -> site:int -> item:string -> int option
(** Position of [site] among the item's subscribers with the base rotated
    to rank 0 — what AV allocation splits over and the hierarchy builds
    its tree on. [None] if the site does not subscribe. *)

val av_parent : t -> site:int -> item:string -> int option
(** The subscriber one hop toward the item's base in the configured
    hierarchy tree; [None] at the base, for non-subscribers, or without a
    hierarchy. *)

val register_joiner : t -> site:int -> items:string list -> unit
(** Records a joining site's declared interest set, in the subscriber
    arrays and in {!interest} (O(|interest| log |interest|): the
    membership event itself never iterates all sites or all items). Items
    outside the catalogue get subscribers but no position. *)

val default_joiner_interest : t -> site:int -> items:string list -> string list
(** A deterministic, hash-chosen interest set for a joiner (≈ spread ×
    items / N under [Scattered]; everything under [Full]). *)

val pp : Format.formatter -> t -> unit
