(* The system under test, behind one face: the sequential [Cluster] when
   [config.domains = 1], the multi-domain [Pcluster] otherwise. Only
   public functions of avdb_core are used. *)

open Avdb_core

type t = Seq of Cluster.t | Par of Pcluster.t

let create config =
  if config.Config.domains > 1 then Par (Pcluster.create config) else Seq (Cluster.create config)

let sites = function Seq c -> Cluster.sites c | Par p -> Pcluster.sites p
let domains = function Seq _ -> 1 | Par p -> Pcluster.n_domains p

let engines = function
  | Seq c -> [| Cluster.engine c |]
  | Par p -> Pcluster.engines p

let base_site_for t ~item =
  match t with
  | Seq c -> Cluster.base_site_for c ~item
  | Par p -> Pcluster.base_site_for p ~item

let events_executed t =
  Array.fold_left (fun acc e -> acc + Avdb_sim.Engine.events_executed e) 0 (engines t)

let now t =
  match t with
  | Seq c -> Avdb_sim.Engine.now (Cluster.engine c)
  | Par p -> Pcluster.now p

let net_stats = function
  | Seq c -> [ Cluster.net_stats c ]
  | Par p -> Array.to_list (Pcluster.net_stats p)

let sum_net f t =
  List.fold_left
    (fun acc stats ->
      List.fold_left (fun acc (_, s) -> acc + f s) acc (Avdb_net.Stats.sites stats))
    0 (net_stats t)

let msgs_sent = sum_net (fun s -> s.Avdb_net.Stats.sent)
let bytes_sent = sum_net (fun s -> s.Avdb_net.Stats.bytes_sent)

let total_correspondences = function
  | Seq c -> Cluster.total_correspondences c
  | Par p -> Pcluster.total_correspondences p

let live_words_per_site = function
  | Seq c -> Cluster.live_words_per_site c
  | Par p -> Pcluster.live_words_per_site p

let replica_amounts t ~item =
  match t with
  | Seq c -> Cluster.replica_amounts c ~item
  | Par p -> Pcluster.replica_amounts p ~item

let rounds = function Seq _ -> 0 | Par p -> Pcluster.rounds p

let flush_all_syncs = function
  | Seq c -> Cluster.flush_all_syncs c
  | Par p -> Pcluster.flush_all_syncs p

let tracers = function
  | Seq c -> [ Cluster.tracer c ]
  | Par p -> Array.to_list (Pcluster.tracers p)

(* The end-of-run correctness gate, in the order a reader would check a
   quiesced system: protocol safety first, then convergence. *)
let gate t =
  let check name = function Ok () -> Ok () | Error e -> Error (name ^ ": " ^ e) in
  let zero name n = if n = 0 then Ok () else Error (Printf.sprintf "%s = %d" name n) in
  let ( let* ) = Result.bind in
  match t with
  | Seq c ->
      let* () = check "decision_agreement" (Cluster.decision_agreement c) in
      let* () = check "sealed_epoch_agreement" (Cluster.sealed_epoch_agreement c) in
      let* () = zero "in_doubt_total" (Cluster.in_doubt_total c) in
      let* () = zero "unsealed_intent_total" (Cluster.unsealed_intent_total c) in
      check "check_invariants" (Cluster.check_invariants c)
  | Par p ->
      let* () = check "decision_agreement" (Pcluster.decision_agreement p) in
      let* () = check "sealed_epoch_agreement" (Pcluster.sealed_epoch_agreement p) in
      let* () = zero "in_doubt_total" (Pcluster.in_doubt_total p) in
      let* () = zero "unsealed_intent_total" (Pcluster.unsealed_intent_total p) in
      check "check_invariants" (Pcluster.check_invariants p)

type submit = shard:int -> Site.t -> item:string -> delta:int -> (Update.result -> unit) -> unit

(* Drives [n] updates through [Runner]; [nth k] names update k. *)
let drive t ~nth ~n ~interval ~(submit : submit) =
  match t with
  | Seq c ->
      ignore
        (Runner.run c ~nth_update:nth ~total_updates:n ~interval
           ~submit:(fun site ~item ~delta k -> submit ~shard:0 site ~item ~delta k)
           ())
  | Par p -> ignore (Runner.run_parallel p ~nth_update:nth ~total_updates:n ~interval ~submit ())
