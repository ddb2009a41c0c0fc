(** Key-granularity exclusive locks with FIFO waiting.

    Built for the event-driven simulation: [acquire] never blocks, it
    invokes a continuation when the lock is granted (possibly immediately)
    or when the request times out. Immediate Update takes exclusive locks
    only. The only deadlocks this system can have span sites (two
    coordinators of one item, each holding its own replica's lock while
    its prepare waits at the other's), where no local wait-for graph sees
    them; the timeout resolves them, and it also covers crashed lock
    holders.

    Per key the table keeps a holder and its waiters, and per owner the
    locks it holds or waits on, so {!release_all} touches only those. A
    free key keeps nothing. *)

type t

type owner = int
(** Opaque owner id — the caller chooses the numbering (e.g. transaction
    ids). Any int but [min_int], which marks a free lock. *)

val create : engine:Avdb_sim.Engine.t -> timeout:Avdb_sim.Time.t -> t
(** [timeout] is how long any request may wait before it fails. *)

val acquire :
  t -> owner:owner -> key:string -> ((unit, [ `Timeout ]) result -> unit) -> unit
(** Requests the key; the continuation fires exactly once, unless the
    owner's {!release_all} drops the request first. The request is
    granted at once when nobody waits for the key and it is free or
    already held by [owner]. Otherwise it waits: a freed key goes to its
    oldest waiter, together with the waiters right behind it of the same
    owner, and a request still waiting after the table's timeout fails
    with [`Timeout]. *)

val release_all : t -> owner:owner -> unit
(** Drops the owner's waiting requests without granting them, then
    releases every key it holds. Unknown owners are ignored. *)

val holder : t -> key:string -> owner option
val is_held : t -> key:string -> bool

val waiting : t -> key:string -> int
(** Number of requests waiting for the key. *)
