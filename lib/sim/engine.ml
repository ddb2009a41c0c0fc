type handle = (unit -> unit) Event_queue.handle

let no_timer = Event_queue.vacant

exception Stopped

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Time.t;
  mutable executed : int;
  mutable stop_requested : bool;
  root_rng : Rng.t;
}

type run_stats = { events_executed : int; end_time : Time.t; stopped_early : bool }

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ();
    clock = Time.zero;
    executed = 0;
    stop_requested = false;
    root_rng = Rng.create seed;
  }

let now t = t.clock
let rng t = t.root_rng

let schedule_at t ~at f =
  if Time.(at < t.clock) then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is in the past (now %a)" Time.pp at Time.pp
         t.clock);
  Event_queue.add t.queue ~time:at f

let schedule t ~delay f = schedule_at t ~at:(Time.add t.clock delay) f
let cancel t h = Event_queue.cancel t.queue h
let stop t = t.stop_requested <- true

let execute_one t =
  match Event_queue.pop_exn t.queue with
  | exception Event_queue.Empty -> false
  | e ->
      t.clock <- Event_queue.entry_time e;
      t.executed <- t.executed + 1;
      Event_queue.entry_payload e ();
      true

let step t = execute_one t

let run ?until ?max_events t =
  t.stop_requested <- false;
  let start_executed = t.executed in
  let budget_hit () =
    match max_events with
    | None -> false
    | Some m -> t.executed - start_executed >= m
  in
  let over_horizon () =
    match until with
    | None -> false
    | Some horizon -> (
        match Event_queue.peek_time t.queue with
        | None -> false
        | Some next -> Time.(next > horizon))
  in
  let stopped = ref false in
  let continue = ref true in
  while !continue do
    if t.stop_requested || budget_hit () then begin
      stopped := true;
      continue := false
    end
    else if over_horizon () then begin
      (* Advance the clock to the horizon so repeated bounded runs compose:
         run ~until:a then ~until:b behaves like one run ~until:b. *)
      (match until with Some horizon -> t.clock <- Time.max t.clock horizon | None -> ());
      continue := false
    end
    else if not (execute_one t) then begin
      (match until with Some horizon -> t.clock <- Time.max t.clock horizon | None -> ());
      continue := false
    end
  done;
  {
    events_executed = t.executed - start_executed;
    end_time = t.clock;
    stopped_early = !stopped;
  }

let events_executed t = t.executed
let pending t = Event_queue.length t.queue
let next_time t = Event_queue.peek_time t.queue
