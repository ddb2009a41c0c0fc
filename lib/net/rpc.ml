open Avdb_sim

(* [may_repeat]: the request can reach the server more than once — its
   call retransmits, or the network duplicated it — so the server records
   its reply for the copies. *)
type ('req, 'resp, 'note) envelope =
  | Request of {
      id : int;
      span : Avdb_obs.Span.id option;
      body : 'req;
      may_repeat : bool;
    }
  | Response of { id : int; body : 'resp }
  | Notice of 'note

type error = Timeout

type retry_policy = {
  max_attempts : int;
  base_backoff : Time.t;
  backoff_multiplier : float;
  jitter : float;
}

let no_retry =
  { max_attempts = 1; base_backoff = Time.zero; backoff_multiplier = 2.; jitter = 0. }

let validate_retry p =
  if p.max_attempts < 1 then invalid_arg "Rpc: retry max_attempts must be >= 1";
  if p.backoff_multiplier < 1. then invalid_arg "Rpc: backoff_multiplier must be >= 1";
  if p.jitter < 0. || p.jitter > 1. then invalid_arg "Rpc: jitter out of [0,1]"

(* Bounded at-most-once reply cache per served node: remembers replies so a
   retransmitted or network-duplicated request is answered from the cache
   instead of re-running the (possibly non-idempotent) handler. Only
   requests marked [may_repeat] enter it. *)
let reply_cache_capacity = 8192

type ('req, 'resp, 'note) t = {
  net : ('req, 'resp, 'note) envelope Network.t;
  engine : Engine.t;
  (* Lazy so transports that never jitter a backoff leave the engine's RNG
     stream untouched (seeded runs stay bit-identical with retries off). *)
  rng : Rng.t Lazy.t;
  default_timeout : Time.t;
  request_size : 'req -> int;
  response_size : 'resp -> int;
  notice_size : 'note -> int;
  mutable next_id : int;
  pending : ('req, 'resp, 'note) call Int_table.t;
  tracer : Avdb_obs.Tracer.t option;
  request_label : 'req -> string;
}

(* A call awaiting its response, a retransmission or its final timeout:
   everything its sends, expiry and retries read, in one record. [ctx] is
   the span its envelopes carry; [timer] is the pending timeout or
   backoff pause. *)
and ('req, 'resp, 'note) call = {
  rpc : ('req, 'resp, 'note) t;
  id : int;
  src : Address.t;
  dst : Address.t;
  body : 'req;
  timeout : Time.t;
  retry : retry_policy;
  call_span : Avdb_obs.Span.id option;
  ctx : Avdb_obs.Span.id option;
  continuation : ('resp, error) result -> unit;
  mutable attempt : int;
  mutable timer : Engine.handle;
}

let flat _ = 64

let create ~engine ?latency ?drop_probability ?duplicate_probability ?reorder_probability
    ?(default_timeout = Time.of_ms 100.) ?(request_size = flat) ?(response_size = flat)
    ?(notice_size = flat) ?tracer ?(request_label = fun _ -> "request") () =
  let net =
    Network.create ~engine ?latency ?drop_probability ?duplicate_probability
      ?reorder_probability ()
  in
  {
    net;
    engine;
    rng = lazy (Rng.split (Engine.rng engine));
    default_timeout;
    request_size;
    response_size;
    notice_size;
    next_id = 0;
    pending = Int_table.create 64;
    tracer;
    request_label;
  }

let network t = t.net
let engine t = t.engine
let stats t = Network.stats t.net

(* Reply-cache key: request ids are only unique per calling transport
   (each shard's rpc numbers its own calls from 0 in parallel mode), so
   the cache is keyed by (caller, id) packed into one unboxed int. 38
   bits of id space outlasts any run by orders of magnitude. *)
let reply_key ~src ~id = (Address.to_int src lsl 38) lor id

let serve t addr ~handler ?(notice = fun ~src:_ _ -> ()) () =
  (* (src, id) -> None while the handler owes a reply, Some resp once
     replied; requests that may repeat only. *)
  let replies : 'resp option Int_table.t = Int_table.create 64 in
  let order = Queue.create () in
  let send_response ~dst ~id body =
    Network.send t.net ~src:addr ~dst ~size:(t.response_size body) (Response { id; body })
  in
  (* First delivery of a request. Server-side span, child of the caller's
     span carried in the envelope: covers handler start to the reply
     hitting the wire. A disabled tracer skips even the label
     concatenation. Only the first reply goes out; with [cached] it is
     also recorded for later copies, unless the entry was evicted first. *)
  let execute ~src ~id ~ctx body ~cached =
    let serve_span =
      match t.tracer with
      | Some tracer when Avdb_obs.Tracer.enabled tracer ->
          Some
            (Avdb_obs.Tracer.start tracer ~at:(Engine.now t.engine) ?parent:ctx
               ~site:(Address.to_int addr) ~category:"rpc"
               ("serve:" ^ t.request_label body))
      | Some _ | None -> None
    in
    let replied = ref false in
    let reply body =
      if not !replied then begin
        replied := true;
        (if cached then
           let rkey = reply_key ~src ~id in
           if Int_table.mem replies rkey then Int_table.replace replies rkey (Some body));
        (match (t.tracer, serve_span) with
        | Some tracer, Some sp -> Avdb_obs.Tracer.finish tracer ~at:(Engine.now t.engine) sp
        | _ -> ());
        send_response ~dst:src ~id body
      end
    in
    handler ~src ~span:serve_span body ~reply
  in
  let deliver ~src envelope =
    match envelope with
    | Request { id; span = ctx; body; may_repeat = false } ->
        execute ~src ~id ~ctx body ~cached:false
    | Request { id; span = ctx; body; may_repeat = true } -> (
        let rkey = reply_key ~src ~id in
        match Int_table.find_opt replies rkey with
        | Some (Some cached) ->
            (* Copy of an already-answered request: replay the reply. *)
            send_response ~dst:src ~id cached
        | Some None -> () (* copy while the first is still in the handler *)
        | None ->
            Int_table.replace replies rkey None;
            Queue.push rkey order;
            if Queue.length order > reply_cache_capacity then
              Int_table.remove replies (Queue.pop order);
            execute ~src ~id ~ctx body ~cached:true)
    | Response { id; body } -> (
        match Int_table.find t.pending id with
        | exception Not_found -> () (* after the timeout, or a duplicate: drop *)
        | c ->
            Int_table.remove t.pending id;
            Engine.cancel t.engine c.timer;
            (match (t.tracer, c.call_span) with
            | Some tracer, Some sp ->
                Avdb_obs.Tracer.finish tracer ~at:(Engine.now t.engine) sp
            | _ -> ());
            c.continuation (Ok body))
    | Notice body -> notice ~src body
  in
  Network.add_node t.net addr deliver

(* Exponential backoff before attempt [n+1], scaled by a deterministic
   jitter factor in [1-j, 1+j] drawn from the transport's own stream. *)
let backoff_delay t policy ~attempt =
  let scale = policy.backoff_multiplier ** float_of_int (attempt - 1) in
  let factor =
    if policy.jitter = 0. then 1.
    else 1. +. (policy.jitter *. Rng.float_in (Lazy.force t.rng) (-1.) 1.)
  in
  let us = float_of_int (Time.to_us policy.base_backoff) *. scale *. factor in
  Time.of_us (int_of_float (Float.max 0. us))

let fail_span c =
  match (c.rpc.tracer, c.call_span) with
  | Some tracer, Some sp ->
      Avdb_obs.Tracer.warn tracer sp;
      Avdb_obs.Tracer.set_field tracer sp "error" "timeout";
      Avdb_obs.Tracer.finish tracer ~at:(Engine.now c.rpc.engine) sp
  | _ -> ()

let note_attempts c n =
  match (c.rpc.tracer, c.call_span) with
  | Some tracer, Some sp -> Avdb_obs.Tracer.set_field tracer sp "attempts" (string_of_int n)
  | _ -> ()

(* Puts the call's request on the wire and arms its timeout. *)
let rec send_request c =
  let t = c.rpc in
  let may_repeat = c.retry.max_attempts > 1 || Network.duplicating t.net in
  Network.send t.net ~src:c.src ~dst:c.dst ~size:(t.request_size c.body)
    (Request { id = c.id; span = c.ctx; body = c.body; may_repeat });
  c.timer <- Engine.schedule t.engine ~delay:c.timeout (fun () -> expire c)

(* The attempt's deadline passed without a response: fail the call after
   its last attempt, otherwise back off and send again. *)
and expire c =
  let t = c.rpc in
  if Int_table.mem t.pending c.id then
    if c.attempt >= c.retry.max_attempts then begin
      Int_table.remove t.pending c.id;
      if c.attempt > 1 then note_attempts c c.attempt;
      fail_span c;
      c.continuation (Error Timeout)
    end
    else begin
      Stats.add_retry (Network.stats t.net) c.src;
      note_attempts c (c.attempt + 1);
      c.timer <-
        Engine.schedule t.engine
          ~delay:(backoff_delay t c.retry ~attempt:c.attempt)
          (fun () -> resend c)
    end

and resend c =
  if Int_table.mem c.rpc.pending c.id then begin
    c.attempt <- c.attempt + 1;
    send_request c
  end

let call t ~src ~dst ?timeout ?(retry = no_retry) ?span body continuation =
  validate_retry retry;
  let timeout = Option.value timeout ~default:t.default_timeout in
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  (* With a tracer, the envelope carries a per-call client span (child of
     [span]); without one, [span] itself propagates so servers can still
     parent onto the caller's context. *)
  let call_span =
    match t.tracer with
    | Some tracer when Avdb_obs.Tracer.enabled tracer ->
        let sp =
          Avdb_obs.Tracer.start tracer ~at:(Engine.now t.engine) ?parent:span
            ~site:(Address.to_int src) ~category:"rpc"
            ("call:" ^ t.request_label body)
        in
        Avdb_obs.Tracer.set_field tracer sp "dst" (Address.to_string dst);
        Some sp
    | Some _ | None -> None
  in
  let ctx = match call_span with Some _ -> call_span | None -> span in
  let c =
    {
      rpc = t;
      id;
      src;
      dst;
      body;
      timeout;
      retry;
      call_span;
      ctx;
      continuation;
      attempt = 1;
      timer = Engine.no_timer;
    }
  in
  Int_table.replace t.pending id c;
  (* One logical call = one correspondence for the caller, regardless of
     retransmissions or outcome: failure is only ever detected by timeout
     now, so the request was genuinely put on the wire every time. *)
  Stats.add_correspondence (Network.stats t.net) src;
  send_request c

let notify t ~src ~dst body =
  Network.send t.net ~src ~dst ~size:(t.notice_size body) (Notice body)
let pending_calls t = Int_table.length t.pending
