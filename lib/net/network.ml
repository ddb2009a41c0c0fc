open Avdb_sim

type 'a node = { handler : src:Address.t -> 'a -> unit; mutable down : bool }

module Pair = struct
  (* Unordered address pair, normalised so (a,b) = (b,a). *)
  type t = Address.t * Address.t

  let make a b = if Address.compare a b <= 0 then (a, b) else (b, a)

  let compare (a1, b1) (a2, b2) =
    match Address.compare a1 a2 with 0 -> Address.compare b1 b2 | c -> c
end

module Pair_set = Set.Make (Pair)

(* Directed links are keyed by one unboxed int instead of an address
   pair: the pair key cost two allocations on every send (the tuple plus
   its boxed hash path), which showed up in the delivery hot path. *)
let link_key src dst = (Address.to_int src lsl 24) lor Address.to_int dst

type 'a t = {
  engine : Engine.t;
  latency : Latency.t;
  mutable drop_probability : float;
  mutable duplicate_probability : float;
  mutable reorder_probability : float;
  bandwidth_bytes_per_sec : int option;
  rng : Rng.t;
  nodes : (Address.t, 'a node) Hashtbl.t;
  stats : Stats.t;
  (* FIFO guarantee: remember the last scheduled delivery instant per
     directed link and never deliver earlier than it. *)
  last_delivery : (int, Time.t) Hashtbl.t;
  (* With finite bandwidth: when the link finishes transmitting its
     current backlog; the next message starts serialising after that. *)
  link_busy_until : (int, Time.t) Hashtbl.t;
  link_overrides : (Pair.t, Latency.t) Hashtbl.t;
  mutable partitions : Pair_set.t;
  (* Parallel mode: addresses owned by other shards. The route returns
     the destination shard's inbox-push for an address it owns; delivery
     time is computed fully sender-side (this network owns all state for
     links leaving its shard), the receiving shard re-checks down and
     partition state at the delivery instant via [deliver_remote]. *)
  mutable remote_route : Address.t -> (at:Time.t -> src:Address.t -> 'a -> unit) option;
}

let check_probability what p =
  if p < 0. || p > 1. then invalid_arg (Printf.sprintf "Network: %s out of [0,1]" what);
  p

let create ~engine ?(latency = Latency.default) ?(drop_probability = 0.)
    ?(duplicate_probability = 0.) ?(reorder_probability = 0.) ?bandwidth_bytes_per_sec () =
  (match bandwidth_bytes_per_sec with
  | Some b when b <= 0 -> invalid_arg "Network.create: bandwidth must be positive"
  | Some _ | None -> ());
  {
    engine;
    latency;
    drop_probability = check_probability "drop_probability" drop_probability;
    duplicate_probability = check_probability "duplicate_probability" duplicate_probability;
    reorder_probability = check_probability "reorder_probability" reorder_probability;
    bandwidth_bytes_per_sec;
    rng = Rng.split (Engine.rng engine);
    nodes = Hashtbl.create 16;
    stats = Stats.create ();
    last_delivery = Hashtbl.create 64;
    link_busy_until = Hashtbl.create 64;
    link_overrides = Hashtbl.create 8;
    partitions = Pair_set.empty;
    remote_route = (fun _ -> None);
  }

let set_remote_route t route = t.remote_route <- route

let engine t = t.engine
let stats t = t.stats

let add_node t addr handler =
  if Hashtbl.mem t.nodes addr then
    invalid_arg (Format.asprintf "Network.add_node: %a already registered" Address.pp addr);
  Hashtbl.add t.nodes addr { handler; down = false }

let remove_node t addr = Hashtbl.remove t.nodes addr

let nodes t =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) t.nodes [] |> List.sort Address.compare

let node t addr =
  match Hashtbl.find_opt t.nodes addr with
  | Some n -> n
  | None -> invalid_arg (Format.asprintf "Network: unknown node %a" Address.pp addr)

let set_down t addr down = (node t addr).down <- down

let set_drop_probability t p = t.drop_probability <- check_probability "drop_probability" p

let set_duplicate_probability t p =
  t.duplicate_probability <- check_probability "duplicate_probability" p

let set_reorder_probability t p =
  t.reorder_probability <- check_probability "reorder_probability" p

let set_link_latency t a b latency = Hashtbl.replace t.link_overrides (Pair.make a b) latency

let link_latency t ~src ~dst =
  Option.value ~default:t.latency (Hashtbl.find_opt t.link_overrides (Pair.make src dst))
let is_down t addr = (node t addr).down
let partition t a b = t.partitions <- Pair_set.add (Pair.make a b) t.partitions
let heal t a b = t.partitions <- Pair_set.remove (Pair.make a b) t.partitions
let is_partitioned t a b = Pair_set.mem (Pair.make a b) t.partitions

(* Delivery-instant computation, shared by the local and cross-shard
   paths: bandwidth serialisation, one latency sample, then either the
   reorder injection (bypasses the FIFO clamp) or the per-link FIFO
   clamp. Returns the primary delivery instant; the caller asks for the
   duplicate separately so the two paths stay draw-for-draw identical. *)
let delivery_time t ~src ~dst ~size ~latency_model =
  let now = Engine.now t.engine in
  (* Finite bandwidth: serialise behind the link's backlog first. *)
  let departure =
    match t.bandwidth_bytes_per_sec with
    | None -> now
    | Some bandwidth ->
        let key = link_key src dst in
        let start =
          match Hashtbl.find_opt t.link_busy_until key with
          | Some busy -> Time.max now busy
          | None -> now
        in
        let transmit_us = size * 1_000_000 / bandwidth in
        let finished = Time.add start (Time.of_us (Stdlib.max 1 transmit_us)) in
        Hashtbl.replace t.link_busy_until key finished;
        finished
  in
  let natural = Time.add departure (Latency.sample latency_model t.rng) in
  (* The [> 0.] guards keep disabled injections from consuming RNG draws,
     so seeded runs are bit-identical with the features off. *)
  if t.reorder_probability > 0. && Rng.bernoulli t.rng t.reorder_probability then begin
    (* Reordering injection: delay this message by one extra latency
       sample and bypass the FIFO clamp, so messages sent after it may
       overtake it on the same link. *)
    Stats.on_reordered t.stats src;
    Time.add natural (Latency.sample latency_model t.rng)
  end
  else begin
    let key = link_key src dst in
    let clamped =
      match Hashtbl.find_opt t.last_delivery key with
      | Some last -> Time.max natural last
      | None -> natural
    in
    Hashtbl.replace t.last_delivery key clamped;
    clamped
  end

let send_local t ~src ~dst dst_node ~size payload =
  Stats.on_sent t.stats src ~bytes:size;
  if
    (node t src).down || dst_node.down || is_partitioned t src dst
    || Rng.bernoulli t.rng t.drop_probability
  then Stats.on_dropped t.stats src
  else begin
    let latency_model = link_latency t ~src ~dst in
    let deliver_at = delivery_time t ~src ~dst ~size ~latency_model in
    (* One closure shared by the primary delivery and the duplicate: the
       event reads its instant from the engine clock, so nothing per-copy
       needs capturing. *)
    let event () =
      (* Crash between send and delivery loses the message. *)
      if dst_node.down || is_partitioned t src dst then Stats.on_dropped t.stats src
      else begin
        Stats.on_received t.stats dst;
        dst_node.handler ~src payload
      end
    in
    ignore (Engine.schedule_at t.engine ~at:deliver_at event);
    if t.duplicate_probability > 0. && Rng.bernoulli t.rng t.duplicate_probability then begin
      (* Duplication injection: a second copy arrives one extra latency
         sample later, outside the FIFO clamp. *)
      Stats.on_duplicated t.stats src;
      ignore
        (Engine.schedule_at t.engine
           ~at:(Time.add deliver_at (Latency.sample latency_model t.rng))
           event)
    end
  end

(* Cross-shard send: everything the sender's shard owns — src down state,
   the (mirrored) partition set, loss/duplication/reordering draws,
   bandwidth and FIFO state for the outgoing link — is applied here, and
   the fully computed delivery instant travels with the message. The one
   check the sender cannot make is whether [dst] is down *at send time*
   (that state lives in the destination shard); the destination re-checks
   down and partition state at the delivery instant, which is when the
   sequential engine makes its final check too. *)
let send_remote t ~src ~dst ~size payload push =
  Stats.on_sent t.stats src ~bytes:size;
  if (node t src).down || is_partitioned t src dst || Rng.bernoulli t.rng t.drop_probability
  then Stats.on_dropped t.stats src
  else begin
    let latency_model = link_latency t ~src ~dst in
    let deliver_at = delivery_time t ~src ~dst ~size ~latency_model in
    push ~at:deliver_at ~src payload;
    if t.duplicate_probability > 0. && Rng.bernoulli t.rng t.duplicate_probability then begin
      Stats.on_duplicated t.stats src;
      push ~at:(Time.add deliver_at (Latency.sample latency_model t.rng)) ~src payload
    end
  end

let send t ~src ~dst ?(size = 64) payload =
  match Hashtbl.find_opt t.nodes dst with
  | Some dst_node -> send_local t ~src ~dst dst_node ~size payload
  | None -> (
      match t.remote_route dst with
      | Some push -> send_remote t ~src ~dst ~size payload push
      | None -> invalid_arg (Format.asprintf "Network: unknown node %a" Address.pp dst))

(* Destination side of a cross-shard message: called while draining the
   shard's inbox at a barrier, with [at] strictly inside a future window,
   so scheduling it can never be in this engine's past. *)
let deliver_remote t ~at ~src ~dst payload =
  let dst_node = node t dst in
  ignore
    (Engine.schedule_at t.engine ~at (fun () ->
         if dst_node.down || is_partitioned t src dst then Stats.on_dropped t.stats src
         else begin
           Stats.on_received t.stats dst;
           dst_node.handler ~src payload
         end))
