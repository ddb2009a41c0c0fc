(** Conservative barrier-stepped parallel execution of sharded engines.

    Each shard owns one {!Engine.t} plus whatever single-domain state hangs
    off it; [run] drives all shards from their own OCaml domains in
    synchronized rounds. A round executes every shard independently over
    one half-open lookahead window [[S, S+window)] (the engine runs
    [~until:S+window-1us], so an event at the next window's start instant
    is never executed early), then meets at a barrier where each shard
    drains its cross-shard inbox — scheduling the messages other shards
    pushed during the window onto its own queue — before the next window
    is chosen.

    Correctness requirement (the conservative-PDES lookahead condition):
    every cross-shard message sent at virtual time [s] must be scheduled
    to arrive no earlier than [s + window]. Then a message pushed during
    window [[S, S+window)] always lands in the {e next} window or later,
    so draining at the barrier never delivers into a shard's past. The
    caller derives [window] from its minimum cross-shard latency.

    Windows advance on the fixed grid [{n * window}] and idle stretches
    are skipped in one hop: the next round starts at the largest grid
    point not beyond the earliest pending event anywhere. The schedule of
    rounds is therefore a pure function of the shards' event timings —
    same-seed runs take identical rounds regardless of interleaving,
    which is what makes the deterministic mode cheap.

    Between rounds all shards are quiescent at a common virtual instant;
    [on_round] runs exactly once there (on whichever domain reached the
    barrier last, while every other domain is parked), so it may read and
    mutate cross-shard state without synchronisation. *)

type shard = {
  engine : Engine.t;
  drain : unit -> unit;
      (** Drain this shard's inbox: schedule every pending cross-shard
          message onto [engine]. Called once before the first round (for
          sends made between runs) and at each barrier, and only from the
          shard's own domain. *)
}

type stats = {
  rounds : int;  (** windows executed *)
  end_time : Time.t;  (** the common virtual clock at termination *)
}

val run : window:Time.t -> ?until:Time.t -> ?on_round:(at:Time.t -> unit) -> shard array -> stats
(** Runs the shards to quiescence, or to [until] (inclusive, matching
    {!Engine.run}: events at exactly [until] still execute; all engine
    clocks end aligned at [until]). [window] must be at least 1us.
    [on_round ~at] is the serial hook: invoked at every barrier decision
    point — including the final one — with the shards' common virtual
    clock. A single-shard array degenerates to [Engine.run] plus the
    hooks; an exception raised by any shard (or by [on_round]) stops all
    shards at the next barrier and is re-raised on the calling domain. *)
