(** Discrete-event simulation engine.

    Single virtual clock plus an event queue of closures. All simulated
    components share one engine; each schedules callbacks at future virtual
    instants and the engine executes them in deterministic [(time, seq)]
    order. Callbacks run to completion (no preemption), so state mutated by
    a callback is never observed half-written by another. *)

type t

type handle
(** A scheduled-event handle for cancellation. *)

exception Stopped
(** Raised internally when [stop] aborts the run loop. *)

val create : ?seed:int -> unit -> t
(** Fresh engine at time {!Time.zero}. [seed] (default 42) seeds the root
    {!Rng.t} from which components should [split] their own streams. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root random stream. Prefer [Rng.split (Engine.rng e)] per
    component over drawing from the root directly. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule e ~delay f] runs [f] at [now e + delay]. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle
(** Runs at an absolute instant. Raises [Invalid_argument] if the instant is
    in the virtual past. *)

val cancel : t -> handle -> unit
(** Takes the event out of the queue at once, in O(log n); harmless if it
    already ran or was cancelled. The handle must come from this engine. *)

type run_stats = {
  events_executed : int;
  end_time : Time.t;
  stopped_early : bool;  (** true iff [stop] was called or a limit hit *)
}

val run : ?until:Time.t -> ?max_events:int -> t -> run_stats
(** Executes events in order until the queue drains, virtual time would
    exceed [until], [max_events] callbacks have run, or [stop] is called.
    Events scheduled exactly at [until] still execute. Returns statistics
    for the run; can be called again to resume. *)

val step : t -> bool
(** Executes the single earliest event. [false] if the queue was empty. *)

val stop : t -> unit
(** From within a callback: abort the enclosing [run] after the current
    callback finishes. *)

val events_executed : t -> int
(** Total callbacks executed over the engine's lifetime. *)

val pending : t -> int
(** Number of live scheduled events. *)

val next_time : t -> Time.t option
(** Virtual instant of the earliest pending event, if any. The parallel
    runner's window decisions are built on this. *)
