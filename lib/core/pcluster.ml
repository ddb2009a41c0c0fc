(* The cluster: the whole simulated system, with the sites sharded across
   OCaml domains by {!Placement} and executed by {!Avdb_sim.Parallel} in
   conservative barrier-stepped windows. {!Cluster} is its single-shard
   view.

   Each shard is a self-contained single-domain world — engine, RPC
   stack, tracer, metrics registry — so no hot-path state is ever
   shared between domains. The only cross-domain traffic is the
   lock-free mailbox of routed network messages: a send whose
   destination lives on another shard computes its full delivery instant
   sender-side (latency draw, loss/duplication/reordering,
   FIFO clamp — all against the sender shard's link state and RNG) and
   pushes the envelope into the owner's inbox; the owner schedules it
   while draining at the next barrier. The lookahead window equals the
   latency lower bound, so a routed message can never land in the
   receiver's past.

   Determinism: shard seeds, the window grid and the rank-ordered
   mailbox drain are all pure functions of (config, topology), so a
   same-seed run produces byte-identical state and exports at any domain
   interleaving. With the default constant latency and no fault
   injection every domain count also reaches the same outcomes: the
   per-site RNG streams differ, but no default-strategy code path
   consumes them in a behaviour-affecting way. *)

open Avdb_sim
open Avdb_net
module Obs_registry = Avdb_obs.Registry
module Tracer = Avdb_obs.Tracer

type envelope = (Protocol.request, Protocol.response, Protocol.notice) Rpc.envelope

(* A routed message at rest in a mailbox: delivery instant and addresses
   resolved sender-side, re-checked (dst down, partition) at delivery. *)
type xmsg = { x_at : Time.t; x_src : Address.t; x_dst : Address.t; x_env : envelope }

type shard = {
  rank : int;
  engine : Engine.t;
  rpc : (Protocol.request, Protocol.response, Protocol.notice) Rpc.t;
  shared : Site.shared;  (* what every site of this shard runs against *)
  registry : Obs_registry.t;
  violations : Obs_registry.counter;
  inbox : xmsg Mailbox.t;
  mutable senders : xmsg Mailbox.sender array;
      (** [senders.(d)]: this shard's push handle into shard [d]'s inbox;
          only touched by the domain currently running this shard *)
  mutable owned : Site.t array;  (* ascending site index; first [n_owned] live *)
  mutable n_owned : int;
  mutable sites_registered : bool;  (* owned sites' series are in [registry] *)
  mutable snapshots_armed : bool;
}

type t = {
  config : Config.t;
  topology : Topology.t;
  catalogue : Product.t array;  (* shared by every shard's sites *)
  placement : Placement.t;
  shards : shard array;
  mutable store : Site.t array;  (* by global site index; first [len] live *)
  mutable len : int;
  window : Time.t;
  mutable next_probe : Time.t;
  mutable probes_run : int;
  mutable rounds : int;
}

(* Geometric growth: a live join appends in amortised O(1) instead of
   copying the whole array (1000 sequential joins would otherwise
   allocate O(N^2) words). Returns the array to keep. *)
let push store len site =
  let store =
    if len < Array.length store then store
    else begin
      let grown = Array.make (Stdlib.max 8 (2 * len)) site in
      Array.blit store 0 grown 0 len;
      grown
    end
  in
  store.(len) <- site;
  store

(* Initial AV for one regular product at one of its subscribers, by the
   site's rank among them (base = rank 0, [count] subscribers total). The
   remainder of an uneven split goes to rank 0 so no volume is lost. Under
   full replication rank/count coincide with site index / N, reproducing
   the legacy allocation exactly. *)
let initial_av config ~rank ~count ~initial_amount =
  match config.Config.allocation with
  | Config.All_at_base -> if rank = 0 then initial_amount else 0
  | Config.Even ->
      let share = initial_amount / count in
      if rank = 0 then initial_amount - (share * (count - 1)) else share
  | Config.Retailers_only ->
      if count = 1 then if rank = 0 then initial_amount else 0
      else begin
        let retailers = count - 1 in
        let share = initial_amount / retailers in
        if rank = 0 then 0
        else if rank = 1 then initial_amount - (share * (retailers - 1))
        else share
      end

(* The regular items of a site's interest set, in catalogue order, each
   with its opening AV. Non-subscribers get no entry at all — their
   ledger, like their stock table, is bounded by the interest set. *)
let regular_ledger catalogue topology ~site_index volume =
  Array.fold_right
    (fun p acc ->
      let product = catalogue.(p) in
      if Product.is_regular product then (product.Product.name, volume product) :: acc
      else acc)
    (Topology.interest topology ~site:site_index)
    []

(* Initial per-site AV ledger: a subscriber's slice of every regular item
   in its interest set. *)
let av_init_for config catalogue topology ~site_index =
  regular_ledger catalogue topology ~site_index (fun product ->
      let item = product.Product.name in
      let count = Topology.subscriber_count topology ~item in
      let rank =
        match Topology.rank topology ~site:site_index ~item with
        | Some r -> r
        | None -> 0 (* unreachable: interested implies ranked *)
      in
      initial_av config ~rank ~count ~initial_amount:product.Product.initial_amount)

(* A site's gauges go to its own shard's registry; snapshots are
   per-shard, so the lag gauge never resolves a peer across a domain. *)
let register_site_metrics t sh site =
  Site_metrics.register_site ~registry:sh.registry ~engine:sh.engine ~config:t.config
    ~topology:t.topology ~catalogue:t.catalogue ~net_stats:(Rpc.stats sh.rpc)
    ~resolve:(fun peer ->
      if peer >= 0 && peer < t.len && Placement.domain_of t.placement peer = sh.rank then
        Some t.store.(peer)
      else None)
    site

(* Every site has a stats entry from its creation, so [Stats.sites]
   lists the same sites whether or not the registry was ever read. *)
let add_stats_entry sh site = ignore (Stats.site (Rpc.stats sh.rpc) (Site.addr site))

(* A shard's per-site series are registered the first time its registry
   is sampled or handed out: most runs never read it, and at 1000 sites
   registration would be most of the set-up. Owned sites are in site
   order with joiners last, so the series come out in the order a
   registration at construction and join would give. Main domain only. *)
let register_owned t sh =
  if not sh.sites_registered then begin
    sh.sites_registered <- true;
    for i = 0 to sh.n_owned - 1 do
      register_site_metrics t sh sh.owned.(i)
    done
  end

(* Decorrelate the shard engines' RNG streams; shard 0 keeps the config
   seed itself. *)
let shard_seed config rank = config.Config.seed lxor (rank * 0x2545F4914F6CDD1D)

let create config =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Pcluster.create: " ^ e));
  let catalogue = Array.of_list config.Config.products in
  let items = List.map (fun p -> p.Product.name) config.Config.products in
  let topology =
    Topology.create config.Config.topology ~n_sites:config.Config.n_sites ~items
  in
  let placement = Placement.create topology ~n_domains:config.Config.domains ~items in
  let n_domains = Placement.n_domains placement in
  let lb = Latency.lower_bound config.Config.latency in
  let window = if Time.compare lb Time.zero > 0 then lb else Time.of_ms 1. in
  let shards =
    Array.init n_domains (fun rank ->
        let engine = Engine.create ~seed:(shard_seed config rank) () in
        let tracer =
          Tracer.create ~enabled:config.Config.tracing
            ~sample_rate:config.Config.trace_sample ?slow:config.Config.trace_slow
            ~seed:config.Config.seed ~id_base:rank ~id_stride:n_domains ()
        in
        let rpc =
          Rpc.create ~engine ~latency:config.Config.latency
            ~drop_probability:config.Config.drop_probability
            ~duplicate_probability:config.Config.duplicate_probability
            ~reorder_probability:config.Config.reorder_probability
            ~default_timeout:config.Config.rpc_timeout
            ~request_size:Protocol.wire_size_request
            ~response_size:Protocol.wire_size_response
            ~notice_size:Protocol.wire_size_notice ~tracer
            ~request_label:Protocol.request_label ()
        in
        let registry = Obs_registry.create () in
        {
          rank;
          engine;
          rpc;
          shared =
            {
              Site.engine;
              rpc;
              config;
              topology;
              catalogue;
              n_members = config.Config.n_sites;
              tracer;
            };
          registry;
          violations = Obs_registry.counter registry "invariant.violations";
          (* a lone shard is never routed to: keep its ring minimal *)
          inbox = Mailbox.create ~ring_capacity:(if n_domains > 1 then 1024 else 2) ();
          senders = [||];
          owned = [||];
          n_owned = 0;
          sites_registered = false;
          snapshots_armed = false;
        })
  in
  let t =
    {
      config;
      topology;
      catalogue;
      placement;
      shards;
      store = [||];
      len = 0;
      window;
      next_probe = Time.zero;
      probes_run = 0;
      rounds = 0;
    }
  in
  (* Cross-shard routing: a send to a site owned elsewhere resolves to a
     push into the owner's inbox. Ownership is read from the placement at
     send time, so sites that join later are routed too. A lone shard owns
     every address and needs no route. *)
  if n_domains > 1 then
    Array.iter
      (fun sh ->
        sh.senders <- Array.map (fun peer -> Mailbox.sender peer.inbox ~rank:sh.rank) shards;
        Network.set_remote_route (Rpc.network sh.rpc) (fun dst ->
            let di = Address.to_int dst in
            if di < 0 || di >= Placement.n_sites placement then None
            else
              let owner = Placement.domain_of placement di in
              if owner = sh.rank then None
              else
                Some
                  (fun ~at ~src env ->
                    Mailbox.push sh.senders.(owner)
                      { x_at = at; x_src = src; x_dst = dst; x_env = env })))
      shards;
  (* Sites, in global index order (per shard this is ascending site
     order — each shard's creation only draws from its own engine). *)
  t.store <-
    Array.init config.Config.n_sites (fun site_index ->
        let sh = shards.(Placement.domain_of placement site_index) in
        Site.create sh.shared
          ~addr:(Address.of_int site_index)
          ~av_init:(av_init_for config catalogue topology ~site_index));
  t.len <- config.Config.n_sites;
  Array.iter
    (fun sh ->
      sh.owned <- Array.map (fun i -> t.store.(i)) (Placement.sites_of placement sh.rank);
      sh.n_owned <- Array.length sh.owned;
      Site_metrics.register_aggregates ~registry:sh.registry ~tracer:sh.shared.Site.tracer
        ~iter_sites:(fun f ->
          for i = 0 to sh.n_owned - 1 do
            f sh.owned.(i)
          done);
      Array.iter (add_stats_entry sh) sh.owned)
    shards;
  t

let config t = t.config
let topology t = t.topology
let placement t = t.placement
let n_domains t = Array.length t.shards
let n_sites t = t.len
let window t = t.window
let sites t = Array.sub t.store 0 t.len

let site t i =
  if i < 0 || i >= t.len then invalid_arg "Pcluster.site: index out of range";
  t.store.(i)

let domain_of_site t i =
  if i < 0 || i >= t.len then invalid_arg "Pcluster.domain_of_site: index out of range";
  Placement.domain_of t.placement i

let shard_of_site t i = t.shards.(domain_of_site t i)
let now t = Engine.now t.shards.(0).engine
let rounds t = t.rounds
let subscribers t ~item = Topology.subscribers t.topology ~item
let interested t ~site ~item = Topology.interested t.topology ~site ~item
let base_site_for t ~item = t.store.(Topology.base_index t.topology ~item)

(* --- scheduling onto shard engines (only between runs, or for events
   armed before a run) --- *)

let schedule_at_site t ~site ~at f =
  ignore (Engine.schedule_at (shard_of_site t site).engine ~at f)

(* --- fault injection: network knobs are sender-side state, so every
   shard's network mirrors them; the [_at] variants install the change
   at the same virtual instant on every shard, which the common window
   grid turns into an atomic cross-shard event. --- *)

let each_net t f = Array.iter (fun sh -> f (Rpc.network sh.rpc)) t.shards

let at_each_net t ~at f =
  Array.iter
    (fun sh -> ignore (Engine.schedule_at sh.engine ~at (fun () -> f (Rpc.network sh.rpc))))
    t.shards

let partition t i j =
  each_net t (fun n -> Network.partition n (Address.of_int i) (Address.of_int j))

let heal t i j = each_net t (fun n -> Network.heal n (Address.of_int i) (Address.of_int j))
let set_drop_probability t p = each_net t (fun n -> Network.set_drop_probability n p)

let set_duplicate_probability t p =
  each_net t (fun n -> Network.set_duplicate_probability n p)

let set_reorder_probability t p = each_net t (fun n -> Network.set_reorder_probability n p)

let partition_at t ~at i j =
  at_each_net t ~at (fun n -> Network.partition n (Address.of_int i) (Address.of_int j))

let heal_at t ~at i j =
  at_each_net t ~at (fun n -> Network.heal n (Address.of_int i) (Address.of_int j))

let set_drop_probability_at t ~at p =
  at_each_net t ~at (fun n -> Network.set_drop_probability n p)

let set_duplicate_probability_at t ~at p =
  at_each_net t ~at (fun n -> Network.set_duplicate_probability n p)

let set_reorder_probability_at t ~at p =
  at_each_net t ~at (fun n -> Network.set_reorder_probability n p)

(* --- observability --- *)

let engines t = Array.map (fun sh -> sh.engine) t.shards
let net_stats t = Array.map (fun sh -> Rpc.stats sh.rpc) t.shards
let tracers t = Array.map (fun sh -> sh.shared.Site.tracer) t.shards
let registries t =
  Array.map
    (fun sh ->
      register_owned t sh;
      sh.registry)
    t.shards

let spans t = Tracer.merged_spans (Array.to_list (tracers t))
let metric_samples t = Obs_registry.merged_samples (Array.to_list (registries t))

let total_correspondences t =
  Array.fold_left (fun acc s -> acc + Stats.total_correspondences s) 0 (net_stats t)

(* A site's sends count on its own shard's stats and its receives on the
   delivering shard's, so per-site rows merge by summing across shards. *)
let per_site_correspondences t =
  Array.to_list (net_stats t)
  |> List.concat_map (fun stats ->
         List.map (fun (a, s) -> (Address.to_int a, s.Stats.correspondences)) (Stats.sites stats))
  |> List.sort compare
  |> List.fold_left
       (fun acc (i, n) ->
         match acc with (j, m) :: rest when i = j -> (i, m + n) :: rest | _ -> (i, n) :: acc)
       []
  |> List.rev

let live_words_per_site t = List.init t.len (fun i -> (i, Site.live_words t.store.(i)))

(* --- invariant probes (they read across shards: barrier-only when
   there is more than one) --- *)

let iter_sites t f =
  for i = 0 to t.len - 1 do
    f t.store.(i)
  done

let site_at t i = t.store.(i)

let violation t name detail =
  let sh = t.shards.(0) in
  Obs_registry.inc sh.violations 1;
  ignore
    (Tracer.instant sh.shared.Site.tracer ~at:(Engine.now sh.engine)
       ~status:Avdb_obs.Span.Warn
       ~fields:[ ("detail", detail) ]
       ~category:"invariant" name)

let run_probes t =
  t.probes_run <- t.probes_run + 1;
  let pending =
    Array.fold_left (fun acc sh -> acc + Rpc.pending_calls sh.rpc) 0 t.shards
  in
  (* AV conservation is only meaningful between grants: a grant response
     in flight carries volume that is on neither ledger yet. *)
  if t.config.Config.mode = Config.Autonomous && pending = 0 then
    List.iter
      (fun product ->
        if Product.is_regular product then
          match
            System_checks.av_conservation ~topology:t.topology ~site:(site_at t)
              ~item:product.Product.name
          with
          | Ok () -> ()
          | Error msg -> violation t "invariant.av_conservation" msg)
      t.config.Config.products;
  match System_checks.net_conservation (Array.to_list (net_stats t)) with
  | Ok () -> ()
  | Error msg -> violation t "invariant.net_conservation" msg

let snapshot_now t =
  run_probes t;
  Array.iter
    (fun sh ->
      register_owned t sh;
      Obs_registry.snapshot sh.registry ~at:(Engine.now sh.engine))
    t.shards

(* Per-shard periodic registry snapshots: self-parking at shard
   quiescence, re-armed by [run]. A lone shard may read every site from
   its own events, so its tick runs the invariant probes too; with more
   shards only the shard's own registry is sampled here and the probes
   run at barriers instead (see [run]). *)
let arm_snapshots t sh =
  match t.config.Config.snapshot_interval with
  | None -> ()
  | Some interval ->
      if not sh.snapshots_armed then begin
        sh.snapshots_armed <- true;
        register_owned t sh;
        let lone = Array.length t.shards = 1 in
        let rec tick () =
          if lone then snapshot_now t
          else Obs_registry.snapshot sh.registry ~at:(Engine.now sh.engine);
          if Engine.pending sh.engine > 0 then
            ignore (Engine.schedule sh.engine ~delay:interval tick)
          else sh.snapshots_armed <- false
        in
        ignore (Engine.schedule sh.engine ~delay:interval tick)
      end

let drain sh =
  List.iter
    (fun ((_, _, m) : int * int * xmsg) ->
      Network.deliver_remote (Rpc.network sh.rpc) ~at:m.x_at ~src:m.x_src ~dst:m.x_dst
        m.x_env)
    (Mailbox.drain sh.inbox)

let run ?until ?on_round t =
  Array.iter (arm_snapshots t) t.shards;
  (match (t.shards, on_round) with
  | [| sh |], None ->
      (* One shard and no barrier hook: there is nothing to synchronise,
         so the engine runs straight through. Stepped in windows instead,
         a 3-site Delay firehose with one update per window ran at
         0.55-0.90x (median 0.66x) of this over 5 pairs on a 2-vCPU
         host. *)
      t.rounds <- 0;
      ignore (Engine.run ?until sh.engine)
  | shards, _ ->
      let multi = Array.length shards > 1 in
      let hook ~at =
        (match t.config.Config.snapshot_interval with
        | Some interval when multi && Time.compare at t.next_probe >= 0 ->
            run_probes t;
            t.next_probe <- Time.add at interval
        | _ -> ());
        match on_round with Some f -> f ~at | None -> ()
      in
      let stats =
        Parallel.run ~window:t.window ?until ~on_round:hook
          (Array.map
             (fun sh -> { Parallel.engine = sh.engine; drain = (fun () -> drain sh) })
             shards)
      in
      t.rounds <- stats.Parallel.rounds);
  (* Quiescence-time probe pass: the periodic probes only fire on the
     snapshot grid, so a run shorter than one interval — or one with no
     snapshot interval configured — would otherwise end without a single
     conservation check. The domains are joined here, so the cross-shard
     reads are safe. *)
  run_probes t

let probes_run t = t.probes_run

(* A retailer entering the live system (the dynamic cooperation of the
   paper's introduction): declare an interest set to the shared topology,
   place the newcomer on the shard owning the base of its first interest
   item, register it on that shard's network, bootstrap the
   interest-scoped catalogue locally with zero AV, then fetch the current
   data and sync state from each interest item's base. AV arrives on
   demand through the ordinary circulation. The membership event itself is
   O(interest + shards): a topology version bump plus a member-count bump
   on every shard — no address-list copy, no broadcast to existing
   sites. *)
let add_retailer ?interest t callback =
  let site_index = t.len in
  let items = List.map (fun p -> p.Product.name) t.config.Config.products in
  let interest =
    match interest with
    | Some l -> l
    | None -> Topology.default_joiner_interest t.topology ~site:site_index ~items
  in
  Topology.register_joiner t.topology ~site:site_index ~items:interest;
  let rank =
    match interest with
    | item :: _ -> Placement.domain_of t.placement (Topology.base_index t.topology ~item)
    | [] -> 0
  in
  ignore (Placement.add_site t.placement ~domain:rank);
  Array.iter (fun sh -> sh.shared.Site.n_members <- site_index + 1) t.shards;
  let sh = t.shards.(rank) in
  let av_init = regular_ledger t.catalogue t.topology ~site_index (fun _ -> 0) in
  let site = Site.create sh.shared ~addr:(Address.of_int site_index) ~av_init in
  t.store <- push t.store t.len site;
  t.len <- t.len + 1;
  sh.owned <- push sh.owned sh.n_owned site;
  sh.n_owned <- sh.n_owned + 1;
  add_stats_entry sh site;
  if sh.sites_registered then register_site_metrics t sh site;
  (* The join's first requests leave from the joiner's own engine at the
     current instant, inside the next run's first window, so a request to
     a base on another shard travels through the mailboxes like any
     mid-run send. *)
  ignore
    (Engine.schedule_at sh.engine ~at:(Engine.now sh.engine) (fun () ->
         Site.join site (fun result -> callback (site_index, result))));
  site_index

(* --- quiescent whole-system operations (domains joined) --- *)

let flush_all_syncs t =
  iter_sites t (Site.flush_sync ~force:true);
  iter_sites t Site.flush_epochs;
  run t

let replica_amounts t ~item =
  System_checks.replica_amounts ~topology:t.topology ~site:(site_at t) ~item

let av_sum t ~item = System_checks.av_sum ~topology:t.topology ~site:(site_at t) ~item

let av_conservation t ~item =
  System_checks.av_conservation ~topology:t.topology ~site:(site_at t) ~item

let decision_agreement t = System_checks.decision_agreement ~iter_sites:(iter_sites t)
let in_doubt_total t = System_checks.in_doubt_total ~iter_sites:(iter_sites t)

let sealed_epoch_agreement t =
  System_checks.sealed_epoch_agreement ~iter_sites:(iter_sites t)

let unsealed_intent_total t = System_checks.unsealed_intent_total ~iter_sites:(iter_sites t)

let check_invariants t =
  System_checks.check_invariants ~config:t.config ~topology:t.topology ~site:(site_at t)
