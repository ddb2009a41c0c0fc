(** Lock-free MPSC mailbox for cross-domain message exchange.

    The parallel engine gives every domain one inbox; any other domain may
    push into it concurrently through its own {!sender} handle, and the
    owning domain drains it single-threadedly at an epoch barrier.

    The fast path is a bounded Vyukov-style ring of [Atomic] sequence
    cells; when the ring is momentarily full, messages overflow onto a
    Treiber stack so a push {e never} blocks and {e never} loses a
    message. {!drain} merges both and returns the batch sorted by
    [(sender rank, per-sender sequence)] — a total order that is a
    deterministic function of what each sender pushed, independent of how
    the domains' pushes interleaved in real time. Per-sender FIFO is
    exact across batches: a batch carries, per sender, only the run of
    sequence numbers that continues the previous batch, and cross-sender
    order is fixed by rank.

    Single-consumer contract: only the owning domain may call {!drain}.
    Senders are single-owner too — a [sender] handle carries the
    per-sender sequence counter and must stay on the domain it was made
    for. *)

type 'a t

type 'a sender

val create : ?ring_capacity:int -> unit -> 'a t
(** [ring_capacity] (default 1024, rounded up to a power of two, minimum
    2) bounds only the lock-free fast path; overflow is unbounded. *)

val sender : 'a t -> rank:int -> 'a sender
(** A push handle for one producing domain. [rank] must be unique among
    the mailbox's producers and fixes the cross-sender drain order. Make
    one handle per rank: its sequence numbers start at 0, and {!drain}
    hands a rank's messages out only in unbroken sequence. *)

val push : 'a sender -> 'a -> unit
(** Enqueues one message. Lock-free; safe to call concurrently with other
    senders' pushes and with the consumer's {!drain}. *)

val drain : 'a t -> (int * int * 'a) list
(** Removes and returns messages as [(rank, seq, payload)] sorted by
    [(rank, seq)]: for each sender, the contiguous run of sequence numbers
    from the one after the last it handed out for that sender. Must only
    be called by the single consuming domain.

    When no push is in flight, that is every message pushed so far. Under
    concurrent pushes a message can be visible before an earlier one of
    its sender's — the earlier one sits in a ring cell behind another
    producer's claimed but unpublished cell, while the later ones went to
    the overflow stack. The mailbox keeps such a message back and hands it
    out, in order, from the drain that also finds the earlier one. No
    message is lost, duplicated or reordered within its sender. *)

val is_empty : 'a t -> bool
(** Consumer-side emptiness check, counting messages kept back by {!drain}
    (approximate under concurrent pushes: may return [true] while a push
    is mid-flight). *)

val pushed : 'a sender -> int
(** Messages pushed through this handle so far. *)
