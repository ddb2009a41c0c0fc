(** Cancellable priority queue of timed events.

    A binary min-heap ordered by [(time, sequence)]; the sequence number
    makes dequeue order total and deterministic — two events scheduled for
    the same instant fire in scheduling order. The heap is indexed: every
    entry knows the slot it occupies, so cancellation is eager and
    O(log n) — the entry leaves the heap at once and the heap holds live
    events only. The entry returned by {!add} is itself the handle that
    cancels it, so an event costs one block. *)

type 'a t

type 'a entry
(** A scheduled event: its fire time and payload. Entries are immutable
    apart from their heap slot and safe to hold after they fire. Neither a
    fired nor a cancelled entry stays reachable from the queue. *)

type 'a handle = 'a entry
(** Identity of a scheduled event, usable to cancel it. *)

val vacant : 'a handle
(** A handle to no event: cancelling it does nothing. It fills a mutable
    handle slot that has no event in it, so the slot needs no option. *)

val create : unit -> 'a t

val add : 'a t -> time:Time.t -> 'a -> 'a handle
(** Schedules a payload at an absolute time. O(log n). *)

val cancel : 'a t -> 'a handle -> unit
(** Removes the event from the heap at once, in O(log n). Harmless if the
    event already fired or was already cancelled. Raises [Invalid_argument]
    for a pending event of another queue. *)

val is_cancelled : 'a handle -> bool

val pop : 'a t -> (Time.t * 'a) option
(** Removes and returns the earliest event. [None] if the queue is
    empty. *)

val entry_time : 'a entry -> Time.t
val entry_payload : 'a entry -> 'a

exception Empty

val pop_exn : 'a t -> 'a entry
(** [pop] without the option/tuple wrapping: returns the entry itself, so
    the simulator's dispatch loop pops allocation-free. Raises {!Empty}
    when the queue is empty. *)

val peek_time : 'a t -> Time.t option
(** Time of the earliest event without removing it. *)

val is_empty : 'a t -> bool
(** O(1): the heap holds live events only. *)

val length : 'a t -> int
(** Number of pending (added, neither fired nor cancelled) events. O(1). *)

val scheduled_total : 'a t -> int
(** Total number of [add]s over the queue's lifetime (diagnostic). *)
