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

val observe :
  t -> site:Avdb_net.Address.t -> item:string -> volume:int -> at:Avdb_sim.Time.t -> unit
(** Records what [site] reported holding for [item] at virtual time [at].
    An older observation never overwrites a newer one. One item lookup
    and one site lookup, O(1) expected whatever the number of sites;
    allocates only for a (site, item) pair seen for the first time. *)

val known : t -> item:string -> observation list
(** All observations for an item, sorted by site. *)

val volume_of : t -> site:Avdb_net.Address.t -> item:string -> int option
(** Last observed volume, if any. *)

val richest : t -> item:string -> exclude:Avdb_net.Address.Set.t -> Avdb_net.Address.t option
(** The non-excluded site with the largest last-observed volume;
    ties break toward the smaller address. Sites with no observation are
    not considered. [None] if nothing qualifies. *)

val forget_site : t -> Avdb_net.Address.t -> unit
(** Drops all observations of a site (e.g. it crashed), including any
    per-item table the removal leaves empty, so repeated join/leave
    cycles return the view to its prior footprint. *)

val items : t -> string list
