(** Per-site and global network accounting.

    The paper's metric is the {e number of correspondences}: one
    correspondence is a request/response pair, i.e. two messages (§4,
    "2 messages are counted as 1 correspondence"). Message counts are
    recorded here by the network; correspondence counts are recorded by the
    RPC layer when a call completes (or times out after being sent) and are
    attributed to the {e calling} site. *)

type site = {
  mutable sent : int;
  mutable received : int;
  mutable bytes_sent : int;
  mutable dropped : int;  (** messages lost to drops, partitions or down nodes *)
  mutable duplicated : int;  (** extra copies injected by duplication *)
  mutable reordered : int;  (** messages exempted from FIFO by reordering injection *)
  mutable retries : int;  (** RPC retransmissions after per-attempt timeouts *)
  mutable correspondences : int;
}

type t

val create : unit -> t

val site : t -> Address.t -> site
(** The mutable per-site record, created on first access. *)

val on_sent : t -> Address.t -> bytes:int -> unit
val on_received : t -> Address.t -> unit
val on_dropped : t -> Address.t -> unit
val on_duplicated : t -> Address.t -> unit
val on_reordered : t -> Address.t -> unit
val add_retry : t -> Address.t -> unit
val add_correspondence : t -> Address.t -> unit

val total_sent : t -> int
val total_received : t -> int
val total_bytes_sent : t -> int
val total_dropped : t -> int
val total_correspondences : t -> int

val total_duplicated : t -> int
(** Injected duplicate deliveries. When nonzero,
    [total_received + total_dropped] exceeds [total_sent] by up to this
    amount (each duplicate is a received message that was never "sent"
    by a site). *)

val total_reordered : t -> int
val total_retries : t -> int

val message_pair_correspondences : t -> float
(** [total_sent / 2.] — the paper's counting rule applied to raw message
    traffic; includes one-way (non-RPC) messages. *)

val sites : t -> (Address.t * site) list
(** Sorted by address. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit
