(** Experiment driver: feeds a stream of user updates into a cluster and
    snapshots the paper's metrics at fixed completion counts.

    Update [k] is submitted at virtual time [k × interval] at the site the
    workload names; completions are asynchronous. Checkpoints are taken
    when the number of {e finished} updates crosses each multiple of
    [checkpoint_every], which is exactly the x-axis of Fig. 6 / the column
    headers of Table 1. *)

type checkpoint = {
  updates_done : int;
  total_correspondences : int;
  per_site_correspondences : (int * int) list;
  applied : int;
  rejected : int;
  virtual_time : Avdb_sim.Time.t;
}

type outcome = {
  checkpoints : checkpoint list;  (** in increasing [updates_done] order *)
  final : checkpoint;
}
(** What a run keeps: O(checkpoints), never one entry per update. A
    caller that needs each {!Update.result} observes it through the
    [submit] wrapper. *)

val run :
  Cluster.t ->
  nth_update:(int -> int * string * int) ->
  total_updates:int ->
  ?interval:Avdb_sim.Time.t ->
  ?checkpoint_every:int ->
  ?submit:(Site.t -> item:string -> delta:int -> (Update.result -> unit) -> unit) ->
  unit ->
  outcome
(** [nth_update k] returns [(site_index, item, delta)] for the k-th update
    (0-based). [interval] defaults to 10 ms, [checkpoint_every] to
    [max 1 (total_updates / 10)]. Runs the engine to quiescence. The
    cluster must have a single shard (checkpoints read the whole system
    mid-run); raises [Invalid_argument] otherwise.

    [submit] defaults to {!Site.submit_update}; passing a wrapper lets a
    caller observe every submission and its completion without the runner
    depending on the observer (the consistency oracle's history recorder
    plugs in here). The wrapper must eventually call the continuation it
    is given exactly as the site reports it. *)

val run_parallel :
  Pcluster.t ->
  nth_update:(int -> int * string * int) ->
  total_updates:int ->
  ?interval:Avdb_sim.Time.t ->
  ?submit:
    (shard:int ->
    Site.t ->
    item:string ->
    delta:int ->
    (Update.result -> unit) ->
    unit) ->
  unit ->
  outcome
(** The variant for any shard count: update [k] fires at the same
    virtual time [start + k × interval] but is armed on the shard owning
    its submission site, and [nth_update] is materialized for all
    [total_updates] on the calling domain before the shards start
    (workload generators are stateful). Unlike {!run}, [checkpoints] is
    empty: a mid-run checkpoint would read cross-shard stats from running
    domains. A [submit] wrapper runs on the shard's domain and receives
    that shard's index; it must only touch shard-local state (e.g. a
    per-shard history recorder). *)
