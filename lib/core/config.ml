open Avdb_sim
open Avdb_net
open Avdb_av

type mode = Autonomous | Centralized

type av_allocation = Even | All_at_base | Retailers_only

type t = {
  n_sites : int;
  products : Product.t list;
  mode : mode;
  allocation : av_allocation;
  strategy : Strategy.t;
  latency : Latency.t;
  drop_probability : float;
  duplicate_probability : float;
  reorder_probability : float;
  rpc_timeout : Time.t;
  rpc_retry : Rpc.retry_policy;
  sync_interval : Time.t option;
  sync_fanout : int option;
  snapshot_interval : Time.t option;
  tracing : bool;
  trace_sample : float;
  trace_slow : Time.t option;
  prefetch_low : int option;
  topology : Topology.spec;
  epoch_batch : int;  (** intents that close an epoch early, before the tick *)
  domains : int;  (** execution domains: the shard count of {!Pcluster.create} *)
  seed : int;
}

let default =
  {
    n_sites = 3;
    products = Product.catalogue ~n_regular:100 ~n_non_regular:0 ~initial_amount:100;
    mode = Autonomous;
    allocation = Even;
    strategy = Strategy.paper;
    latency = Latency.Constant (Time.of_ms 1.);
    drop_probability = 0.;
    duplicate_probability = 0.;
    reorder_probability = 0.;
    rpc_timeout = Time.of_ms 100.;
    rpc_retry = Rpc.no_retry;
    sync_interval = None;
    sync_fanout = None;
    snapshot_interval = None;
    tracing = true;
    trace_sample = 1.;
    trace_slow = None;
    prefetch_low = None;
    topology = Topology.flat;
    epoch_batch = 8;
    domains = 1;
    seed = 42;
  }

let validate t =
  if t.n_sites < 1 then Error "n_sites must be >= 1"
  else if t.products = [] then Error "no products"
  else if t.drop_probability < 0. || t.drop_probability > 1. then
    Error "drop_probability out of [0,1]"
  else if t.duplicate_probability < 0. || t.duplicate_probability > 1. then
    Error "duplicate_probability out of [0,1]"
  else if t.reorder_probability < 0. || t.reorder_probability > 1. then
    Error "reorder_probability out of [0,1]"
  else if t.rpc_retry.Rpc.max_attempts < 1 then Error "rpc_retry.max_attempts must be >= 1"
  else if t.trace_sample < 0. || t.trace_sample > 1. then
    Error "trace_sample out of [0,1]"
  else if (match t.prefetch_low with Some low -> low < 1 | None -> false) then
    Error "prefetch_low must be >= 1"
  else if (match t.sync_fanout with Some k -> k < 1 | None -> false) then
    Error "sync_fanout must be >= 1"
  else if t.epoch_batch < 1 then Error "epoch_batch must be >= 1"
  else if t.domains < 1 then Error "domains must be >= 1"
  else if t.domains > 1 && Time.equal (Latency.lower_bound t.latency) Time.zero then
    (* The conservative lookahead window is the latency lower bound; a
       zero bound (e.g. Gaussian) leaves the parallel engine no window. *)
    Error "domains > 1 requires a latency model with a positive lower bound"
  else if
    (* a zero interval would re-fire at the same instant forever *)
    match t.snapshot_interval with
    | Some i -> Time.equal i Time.zero
    | None -> false
  then Error "snapshot_interval must be positive"
  else begin
    match Topology.validate_spec t.topology ~n_sites:t.n_sites with
    | Error _ as e -> e
    | Ok () ->
        let names = List.map (fun p -> p.Product.name) t.products in
        if List.length (List.sort_uniq String.compare names) <> List.length names then
          Error "duplicate product names"
        else Ok ()
  end

let pp ppf t =
  Format.fprintf ppf
    "@[<v>sites=%d products=%d mode=%s allocation=%s strategy=%s latency=%a seed=%d@]"
    t.n_sites (List.length t.products)
    (match t.mode with Autonomous -> "autonomous" | Centralized -> "centralized")
    (match t.allocation with
    | Even -> "even"
    | All_at_base -> "all-at-base"
    | Retailers_only -> "retailers-only")
    (Strategy.name t.strategy) Latency.pp t.latency t.seed
