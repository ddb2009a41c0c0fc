open Avdb_sim

type checkpoint = {
  updates_done : int;
  total_correspondences : int;
  per_site_correspondences : (int * int) list;
  applied : int;
  rejected : int;
  virtual_time : Time.t;
}

type outcome = { checkpoints : checkpoint list; final : checkpoint }

let snapshot cluster ~updates_done ~applied ~rejected =
  {
    updates_done;
    total_correspondences = Cluster.total_correspondences cluster;
    per_site_correspondences = Cluster.per_site_correspondences cluster;
    applied;
    rejected;
    virtual_time = Avdb_sim.Engine.now (Cluster.engine cluster);
  }

let run cluster ~nth_update ~total_updates ?(interval = Time.of_ms 10.)
    ?checkpoint_every ?(submit = fun site ~item ~delta k -> Site.submit_update site ~item ~delta k)
    () =
  if total_updates < 0 then invalid_arg "Runner.run: negative total_updates";
  let checkpoint_every =
    match checkpoint_every with
    | Some c when c > 0 -> c
    | Some _ -> invalid_arg "Runner.run: checkpoint_every must be positive"
    | None -> Stdlib.max 1 (total_updates / 10)
  in
  let engine = Cluster.engine cluster in
  let done_count = ref 0 in
  let applied = ref 0 in
  let rejected = ref 0 in
  let rev_checkpoints = ref [] in
  let on_result result =
    incr done_count;
    if Update.is_applied result then incr applied else incr rejected;
    if !done_count mod checkpoint_every = 0 then
      rev_checkpoints :=
        snapshot cluster ~updates_done:!done_count ~applied:!applied ~rejected:!rejected
        :: !rev_checkpoints
  in
  (* Relative to the current virtual time, so several runs compose on one
     cluster (e.g. add sites between phases). Updates are drip-fed — each
     event schedules its successor at the next fixed slot — rather than
     preloaded, so the event queue holds a handful of events instead of
     [total_updates] and every heap operation stays cheap. Fire times are
     identical either way: start + k * interval. *)
  let start = Avdb_sim.Engine.now engine in
  let rec arm k =
    if k < total_updates then
      ignore
        (Engine.schedule_at engine
           ~at:(Time.add start (Time.mul interval (float_of_int k)))
           (fun () ->
             arm (k + 1);
             let site_index, item, delta = nth_update k in
             submit (Cluster.site cluster site_index) ~item ~delta on_result))
  in
  arm 0;
  Cluster.run cluster;
  let final =
    snapshot cluster ~updates_done:!done_count ~applied:!applied ~rejected:!rejected
  in
  { checkpoints = List.rev !rev_checkpoints; final }

(* The parallel variant: same fire times (start + k * interval), with
   update [k] drip-fed on the shard that owns its submission site, so
   every shard arms only its own chain and no completion callback ever
   crosses a domain. Completions are tallied in per-shard counters (each
   written by exactly one shard) and summed after the domains join.
   Mid-run checkpoints would read cross-shard stats from a running
   domain, so only the final checkpoint is taken. *)
let run_parallel pcluster ~nth_update ~total_updates ?(interval = Time.of_ms 10.)
    ?(submit =
      fun ~shard:_ site ~item ~delta k -> Site.submit_update site ~item ~delta k) () =
  if total_updates < 0 then invalid_arg "Runner.run_parallel: negative total_updates";
  (* Workload generators are stateful; materialize every update on the
     calling domain before any shard runs. *)
  let updates = Array.init total_updates nth_update in
  let n_shards = Pcluster.n_domains pcluster in
  let applied = Array.make n_shards 0 in
  let rejected = Array.make n_shards 0 in
  let by_shard = Array.make n_shards [] in
  for k = total_updates - 1 downto 0 do
    let site_index, _, _ = updates.(k) in
    let d = Pcluster.domain_of_site pcluster site_index in
    by_shard.(d) <- k :: by_shard.(d)
  done;
  let start = Pcluster.now pcluster in
  Array.iteri
    (fun d ks ->
      let ks = Array.of_list ks in
      let rec arm j =
        if j < Array.length ks then begin
          let k = ks.(j) in
          let site_index, item, delta = updates.(k) in
          Pcluster.schedule_at_site pcluster ~site:site_index
            ~at:(Time.add start (Time.mul interval (float_of_int k)))
            (fun () ->
              arm (j + 1);
              submit ~shard:d (Pcluster.site pcluster site_index) ~item ~delta
                (fun result ->
                  if Update.is_applied result then applied.(d) <- applied.(d) + 1
                  else rejected.(d) <- rejected.(d) + 1))
        end
      in
      arm 0)
    by_shard;
  Pcluster.run pcluster;
  let sum = Array.fold_left ( + ) 0 in
  let applied = sum applied and rejected = sum rejected in
  let final =
    {
      updates_done = applied + rejected;
      total_correspondences = Pcluster.total_correspondences pcluster;
      per_site_correspondences = Pcluster.per_site_correspondences pcluster;
      applied;
      rejected;
      virtual_time = Pcluster.now pcluster;
    }
  in
  { checkpoints = []; final }
