(** Possibly-stale knowledge of other sites' AV holdings.

    The paper's selecting function chooses "according to the amount of AV
    the site keeps, which information is collected at the necessary
    communication for AV management and may not be current data" (§4).
    This module is that cache: observations are timestamped and never
    invalidated, only superseded by newer observations of the same
    (site, item). *)

type observation = private {
  site : Avdb_net.Address.t;
  mutable volume : int;
  mutable at : Avdb_sim.Time.t;
}
(** Later {!observe} calls for the same (site, item) update an observation
    in place: read one, do not keep it. *)

type t

val create : unit -> t

type entry
(** One item's observations, keyed by site: what {!entry} hands out for
    the item, valid for the life of the [t]. *)

val entry : t -> item:string -> entry
(** The item's entry, made on the first call for the item: one item
    lookup, allocating only the first time. *)

val no_entry : entry
(** A shared placeholder that is no item's entry: a holder keeps it until
    it takes the item's {!entry}. {!observe_entry} refuses it. *)

val observe_entry :
  entry -> site:Avdb_net.Address.t -> volume:int -> at:Avdb_sim.Time.t -> unit
(** Records what [site] reported holding for the entry's item at virtual
    time [at]. An older observation never overwrites a newer one. One
    int-keyed site lookup, O(1) expected whatever the number of sites;
    allocates only for a site the entry has not seen. Raises
    [Invalid_argument] on {!no_entry}. *)

val observe :
  t -> site:Avdb_net.Address.t -> item:string -> volume:int -> at:Avdb_sim.Time.t -> unit
(** {!observe_entry} on the item's {!entry}: one item lookup more. *)

val known : t -> item:string -> observation list
(** All observations for an item, sorted by site. *)

val volume_of : t -> site:Avdb_net.Address.t -> item:string -> int option
(** Last observed volume, if any. *)

val richest : t -> item:string -> exclude:Avdb_net.Address.Set.t -> Avdb_net.Address.t option
(** The non-excluded site with the largest last-observed volume;
    ties break toward the smaller address. Sites with no observation are
    not considered. [None] if nothing qualifies. *)

val items : t -> string list
