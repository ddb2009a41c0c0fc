(* The four workloads. Each one fixes a system configuration and a
   generator; the generator turns a seed into the whole update stream
   before any timing starts, so the system under test only ever sees the
   generated inputs. Every workload is an open loop in virtual time: the
   runner submits update k at k x interval whether or not earlier updates
   have finished. Sizes are chosen so that one repetition takes about a
   second of wall time on a 2-core host and no operation fails. *)

open Avdb_core
module Time = Avdb_sim.Time
module Rng = Avdb_sim.Rng
module Scm = Avdb_workload.Scm

(* One update per int, kept outside the OCaml heap so the inputs do not
   count towards the system's peak heap: site in bits 44.., item index in
   bits 24..43, delta (biased) in bits 0..23. *)
type inputs = {
  items : string array;
  initial : int array;  (** initial amount, by item index *)
  packed : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

let delta_bias = 1 lsl 23

let pack ~site ~item ~delta =
  if site >= 1 lsl 19 || item >= 1 lsl 20 || abs delta >= delta_bias then
    invalid_arg "Workloads.pack: update out of range";
  (site lsl 44) lor (item lsl 24) lor (delta + delta_bias)

let site_of p = p lsr 44
let item_of p = (p lsr 24) land 0xFFFFF
let delta_of p = (p land 0xFFFFFF) - delta_bias
let length inputs = Bigarray.Array1.dim inputs.packed

let make_inputs products n f =
  let items = Array.of_list (List.map (fun p -> p.Product.name) products) in
  let initial = Array.of_list (List.map (fun p -> p.Product.initial_amount) products) in
  let packed = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  let index = Hashtbl.create (Array.length items) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) items;
  for k = 0 to n - 1 do
    let site, item, delta = f k in
    packed.{k} <- pack ~site ~item:(Hashtbl.find index item) ~delta
  done;
  { items; initial; packed }

(* Subscribers of each item, base first: the rotation order
   [Scm.create_sharded] expects. *)
let subscribers_of config =
  let items = List.map (fun p -> p.Product.name) config.Config.products in
  let topology =
    Topology.create config.Config.topology ~n_sites:config.Config.n_sites ~items
  in
  fun item ->
    let base = Topology.base_index topology ~item in
    Array.of_list
      (base :: List.filter (fun i -> i <> base) (Topology.subscribers topology ~item))

let scm_inputs config scm n =
  make_inputs config.Config.products n (fun k ->
      let u = Scm.nth scm k in
      (u.Scm.site_index, u.Scm.item, u.Scm.delta))

let spec_of config ~maker_increase_pct ~retailer_decrease_pct =
  {
    Scm.n_sites = config.Config.n_sites;
    items =
      Array.of_list
        (List.map (fun p -> (p.Product.name, p.Product.initial_amount)) config.Config.products);
    maker_increase_pct;
    retailer_decrease_pct;
    item_skew = 0.;
    maker_weight = 1;
  }

type t = {
  name : string;
  config : Config.t;  (** [seed] is overwritten with the run's seed *)
  updates : int;  (** per repetition at full size *)
  interval : Time.t;
  reads : bool;
      (** the submit wrapper also issues a local read at every 8th retailer
          submission and an authoritative read at every 64th *)
  parallel : bool;
      (** the traced run also drives the inputs on two domains, for the
          parallel engine's per-layer metrics *)
  generate : Config.t -> n:int -> seed:int -> inputs;
}

let quiet = { Config.default with Config.tracing = false }

let delay_firehose =
  let n_items = 8 in
  let config =
    {
      quiet with
      Config.n_sites = 3;
      products = Product.catalogue ~n_regular:n_items ~n_non_regular:0 ~initial_amount:1_000_000_000;
      allocation = Config.Even;
      sync_interval = None;
    }
  in
  {
    name = "delay-firehose";
    config;
    updates = 600_000;
    interval = Time.of_ms 10.;
    reads = false;
    parallel = false;
    generate =
      (fun config ~n ~seed ->
        let rng = Rng.create seed in
        make_inputs config.Config.products n (fun _ ->
            let site = Rng.int rng 3 in
            let item = "product" ^ string_of_int (Rng.int rng n_items) in
            let size = 1 + Rng.int rng 10 in
            (site, item, if site = 0 then size else -size)));
  }

let scm_hetero =
  let config =
    {
      quiet with
      Config.products = Product.catalogue ~n_regular:100 ~n_non_regular:0 ~initial_amount:1000;
      sync_interval = Some (Time.of_ms 50.);
    }
  in
  {
    name = "scm-hetero";
    config;
    updates = 60_000;
    interval = Time.of_ms 10.;
    reads = true;
    parallel = false;
    generate =
      (fun config ~n ~seed ->
        (* The paper's delta sizes (at most 30 up, 10 down) over ten times
           its stock, so production outruns demand and no update is
           refused for want of stock. *)
        let spec = spec_of config ~maker_increase_pct:0.03 ~retailer_decrease_pct:0.01 in
        scm_inputs config (Scm.create spec ~seed) n);
  }

let sharded_1000 =
  let config =
    {
      quiet with
      Config.n_sites = 1000;
      topology = Topology.sharded ~spread:3 ();
      products = Product.catalogue ~n_regular:1000 ~n_non_regular:0 ~initial_amount:100_000;
      allocation = Config.All_at_base;
      sync_interval = Some (Time.of_ms 50.);
    }
  in
  {
    name = "sharded-1000";
    config;
    updates = 30_000;
    interval = Time.of_ms 0.1;
    reads = false;
    (* The end-to-end runs stay on one domain: on a shared 2-core host two
       domains spread 8-17% from run to run, too much for any bound. *)
    parallel = true;
    generate =
      (fun config ~n ~seed ->
        let spec =
          spec_of config ~maker_increase_pct:0.0004 ~retailer_decrease_pct:0.0002
        in
        let scm = Scm.create_sharded spec ~subscribers:(subscribers_of config) ~seed in
        scm_inputs config scm n);
  }

let strong_mix =
  let config =
    {
      quiet with
      Config.n_sites = 100;
      topology = Topology.sharded ~spread:3 ();
      products =
        Product.mixed ~n_regular:0 ~n_non_regular:16 ~n_epoch:16 ~initial_amount:1_000_000;
      sync_interval = None;
      epoch_batch = 32;
    }
  in
  {
    name = "strong-mix";
    config;
    updates = 16_000;
    interval = Time.of_ms 0.5;
    reads = false;
    parallel = false;
    generate =
      (fun config ~n ~seed ->
        (* Items in strict rotation, so two 2PC rounds on one item never
           overlap and no update aborts; the seed picks the submitting
           subscriber and the delta. *)
        let rng = Rng.create seed in
        let items = Array.of_list (List.map (fun p -> p.Product.name) config.Config.products) in
        let subscribers = subscribers_of config in
        make_inputs config.Config.products n (fun k ->
            let item = items.(k mod Array.length items) in
            let size = 1 + Rng.int rng 10 in
            (Rng.pick rng (subscribers item), item, if Rng.bool rng then size else -size)));
  }

let all = [ delay_firehose; scm_hetero; sharded_1000; strong_mix ]
let find name = List.find_opt (fun w -> w.name = name) all
