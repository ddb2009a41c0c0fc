(** The single-domain view of {!Pcluster}: the same system built with
    one shard, plus accessors for that shard's engine, network stats and
    instruments. Everything not redeclared below is {!Pcluster}'s, with
    its documentation. *)

include module type of Pcluster with type t = Pcluster.t

val create : Config.t -> t
(** Raises [Invalid_argument] if {!Config.validate} fails. Always builds a
    single shard: [config.domains] is ignored here — callers that honour
    it use {!Pcluster.create}. *)

val base_site : t -> Site.t
(** Site 0 — the base of every item under the legacy flat topology. Under
    per-item sharding prefer {!base_site_for}. *)

(** {2 The single shard}

    Each raises [Invalid_argument] on a cluster with more than one
    shard. *)

val engine : t -> Avdb_sim.Engine.t
val net_stats : t -> Avdb_net.Stats.t

val tracer : t -> Avdb_obs.Tracer.t
(** The shard's causal span collector ({!Pcluster.tracers}). *)

val registry : t -> Avdb_obs.Registry.t
(** The shard's metrics registry ({!Pcluster.registries}). *)
