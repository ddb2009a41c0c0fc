(** Simulated message-passing network.

    A set of nodes identified by {!Address.t}, connected all-to-all. Each
    directed link delivers messages FIFO with latency drawn from a
    {!Latency.t} model; links may drop messages probabilistically, pairs of
    nodes may be partitioned, and whole nodes may be taken down (crash
    model: messages to or from a down node are silently lost and counted as
    dropped). Delivery is a scheduled event on the shared {!Avdb_sim.Engine.t},
    so all network behaviour is deterministic given the engine seed.
    Nodes and their counters sit in arrays indexed by {!Address.to_int},
    which suits the small, dense site numbers addresses are. *)

type 'a t
(** A network carrying payloads of type ['a]. *)

val create :
  engine:Avdb_sim.Engine.t ->
  ?latency:Latency.t ->
  ?drop_probability:float ->
  ?duplicate_probability:float ->
  ?reorder_probability:float ->
  unit ->
  'a t
(** [latency] defaults to {!Latency.default}; [drop_probability] (default
    [0.]) applies independently to every message. [duplicate_probability]
    (default [0.]) delivers an extra copy of the message one extra latency
    sample later; [reorder_probability] (default [0.]) exempts the message
    from the per-link FIFO guarantee and delays it by one extra latency
    sample, so later messages can overtake it. Bandwidth is infinite: a
    message's size never delays it. The network draws its randomness
    from a stream split off the engine's root RNG at creation. *)

val engine : 'a t -> Avdb_sim.Engine.t
val stats : 'a t -> Stats.t

val add_node : 'a t -> Address.t -> (src:Address.t -> 'a -> unit) -> unit
(** Registers a node and its delivery handler. Raises [Invalid_argument] if
    the address is already registered. *)

val remove_node : 'a t -> Address.t -> unit

val nodes : 'a t -> Address.t list
(** Registered addresses, sorted. *)

val send : 'a t -> src:Address.t -> dst:Address.t -> ?size:int -> 'a -> unit
(** Queues a message for delivery. [size] (default 64 bytes) only feeds the
    byte counters. Sending to an unregistered address raises
    [Invalid_argument]; sending to or from a down node silently drops.
    Self-sends deliver with the same latency as any other link. *)

(** {2 Cross-shard routing (parallel engine)} *)

val set_remote_route :
  'a t -> (Address.t -> (at:Avdb_sim.Time.t -> src:Address.t -> 'a -> unit) option) -> unit
(** Installs the resolver for addresses owned by other shards. When
    {!send}'s destination is not registered locally, the resolver is
    consulted; [Some push] makes the send compute its full delivery
    instant sender-side (latency draw, FIFO clamp, loss /
    duplication / reordering — all against this shard's link state and
    RNG) and hand [(at, src, payload)] to [push], which is expected to
    enqueue it on the owning shard's mailbox. [None] falls through to the
    unknown-address error. Default: no remote addresses.

    Sender-side checks cover src-down, the local (mirrored) partition
    set and loss; dst-down is only checked at the delivery instant by
    the receiving shard (see {!deliver_remote}) — the destination's
    crash state is not observable cross-shard at send time. *)

val deliver_remote :
  'a t -> at:Avdb_sim.Time.t -> src:Address.t -> dst:Address.t -> 'a -> unit
(** Destination-shard half of a routed send: schedules the handler
    invocation at [at] on this network's engine, re-checking dst-down and
    partition state at that instant exactly like a locally sent message.
    Called while draining the shard's inbox at a barrier; [at] must not
    be in this engine's past (guaranteed by the lookahead window). *)

(** {2 Fault injection} *)

val set_down : 'a t -> Address.t -> bool -> unit
(** Marks a node crashed/recovered. In-flight messages to a node that
    crashes before delivery are lost. *)

val set_drop_probability : 'a t -> float -> unit
(** Changes the loss rate at runtime — scripted fault scenarios open and
    close lossy windows with this. Raises [Invalid_argument] outside
    [0,1]. *)

val set_duplicate_probability : 'a t -> float -> unit

val duplicating : 'a t -> bool
(** Whether a {!send} made now may deliver a second copy: the duplicate
    probability is above zero. {!send} draws the duplicate while it runs,
    so a sender that reads this just before sending knows exactly whether
    its message can arrive twice; {!Rpc} marks such requests for its reply
    cache this way. *)

val set_reorder_probability : 'a t -> float -> unit

val is_down : 'a t -> Address.t -> bool

val partition : 'a t -> Address.t -> Address.t -> unit
(** Cuts both directions between two nodes. *)

val heal : 'a t -> Address.t -> Address.t -> unit
val is_partitioned : 'a t -> Address.t -> Address.t -> bool
