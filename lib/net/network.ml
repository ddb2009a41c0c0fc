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

(* Per directed link, created on the link's first send. FIFO guarantee:
   the last scheduled delivery instant, which no later message on the
   link undercuts. With finite bandwidth: when the link finishes
   transmitting its current backlog; the next message starts serialising
   after that. Both start at zero, which bounds nothing. *)
type link = { mutable last_delivery : Time.t; mutable busy_until : Time.t }

type 'a t = {
  engine : Engine.t;
  latency : Latency.t;
  mutable drop_probability : float;
  mutable duplicate_probability : float;
  mutable reorder_probability : float;
  bandwidth_bytes_per_sec : int option;
  rng : Rng.t;
  (* Indexed by [Address.to_int]; [None] for an unregistered address. *)
  mutable nodes : 'a node option array;
  stats : Stats.t;
  links : link Int_table.t;
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
    nodes = [||];
    stats = Stats.create ();
    links = Int_table.create 64;
    link_overrides = Hashtbl.create 8;
    partitions = Pair_set.empty;
    remote_route = (fun _ -> None);
  }

let set_remote_route t route = t.remote_route <- route

let engine t = t.engine
let stats t = t.stats

let find_node t addr =
  let i = Address.to_int addr in
  if i < Array.length t.nodes then t.nodes.(i) else None

let add_node t addr handler =
  if Option.is_some (find_node t addr) then
    invalid_arg (Format.asprintf "Network.add_node: %a already registered" Address.pp addr);
  let i = Address.to_int addr in
  if i >= Array.length t.nodes then begin
    let grown = Array.make (Stdlib.max (i + 1) (2 * Array.length t.nodes)) None in
    Array.blit t.nodes 0 grown 0 (Array.length t.nodes);
    t.nodes <- grown
  end;
  t.nodes.(i) <- Some { handler; down = false }

let remove_node t addr =
  let i = Address.to_int addr in
  if i < Array.length t.nodes then t.nodes.(i) <- None

let nodes t =
  let acc = ref [] in
  for i = Array.length t.nodes - 1 downto 0 do
    if Option.is_some t.nodes.(i) then acc := Address.of_int i :: !acc
  done;
  !acc

let node t addr =
  match find_node t addr with
  | Some n -> n
  | None -> invalid_arg (Format.asprintf "Network: unknown node %a" Address.pp addr)

let set_down t addr down = (node t addr).down <- down

let set_drop_probability t p = t.drop_probability <- check_probability "drop_probability" p

let set_duplicate_probability t p =
  t.duplicate_probability <- check_probability "duplicate_probability" p

let set_reorder_probability t p =
  t.reorder_probability <- check_probability "reorder_probability" p

let duplicating t = t.duplicate_probability > 0.

let set_link_latency t a b latency = Hashtbl.replace t.link_overrides (Pair.make a b) latency

(* Both lookups below build a pair; while no override or partition exists
   (every run but a few scripted ones) they return without it. *)
let link_latency t ~src ~dst =
  if Hashtbl.length t.link_overrides = 0 then t.latency
  else
    Option.value ~default:t.latency (Hashtbl.find_opt t.link_overrides (Pair.make src dst))

let is_down t addr = (node t addr).down
let partition t a b = t.partitions <- Pair_set.add (Pair.make a b) t.partitions
let heal t a b = t.partitions <- Pair_set.remove (Pair.make a b) t.partitions

let is_partitioned t a b =
  (not (Pair_set.is_empty t.partitions)) && Pair_set.mem (Pair.make a b) t.partitions

let link t key =
  match Int_table.find t.links key with
  | l -> l
  | exception Not_found ->
      let l = { last_delivery = Time.zero; busy_until = Time.zero } in
      Int_table.add t.links key l;
      l

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
        let l = link t (link_key src dst) in
        let transmit_us = size * 1_000_000 / bandwidth in
        let finished =
          Time.add (Time.max now l.busy_until) (Time.of_us (Stdlib.max 1 transmit_us))
        in
        l.busy_until <- finished;
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
    let l = link t (link_key src dst) in
    let clamped = Time.max natural l.last_delivery in
    l.last_delivery <- clamped;
    clamped
  end

let send_local t ~src ~dst dst_node ~size payload =
  Stats.on_sent t.stats src ~bytes:size;
  if
    (node t src).down || dst_node.down || is_partitioned t src dst
    || (t.drop_probability > 0. && Rng.bernoulli t.rng t.drop_probability)
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
  if
    (node t src).down || is_partitioned t src dst
    || (t.drop_probability > 0. && Rng.bernoulli t.rng t.drop_probability)
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
  match find_node t dst with
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
