include Pcluster

let create config =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Cluster.create: " ^ e));
  Pcluster.create { config with Config.domains = 1 }

let only name per_shard t =
  match per_shard t with
  | [| x |] -> x
  | _ -> invalid_arg ("Cluster." ^ name ^ ": more than one shard")

let engine = only "engine" Pcluster.engines
let net_stats = only "net_stats" Pcluster.net_stats
let tracer = only "tracer" Pcluster.tracers
let registry = only "registry" Pcluster.registries
let base_site t = Pcluster.site t 0
