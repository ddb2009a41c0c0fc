(** Request/response messaging over {!Network}, with timeouts, retries and
    at-most-once execution.

    Wraps a network whose payload is the private {!type-envelope}: callers
    see typed requests ['req], responses ['resp] and one-way notices
    ['note]. Every call counts one {e correspondence} against the calling
    site, matching the paper's metric of request/response pairs.

    Failure detection is {e timeout-only}: the transport never consults
    global knowledge about whether a peer is down or partitioned, so a call
    to a dead peer fails exactly like a call over a lossy link — with
    [Timeout] after the deadline (times the configured attempts). A server
    keeps a bounded reply cache keyed by caller and request id, so
    retransmitted or network-duplicated requests are answered from the
    cache instead of re-running the handler: handlers observe at-most-once
    execution even for non-idempotent operations.

    Only a request that can arrive twice enters the cache: one whose call
    has [max_attempts > 1], or one sent while {!Network.duplicating} holds.
    The caller decides this when it sends, which is when the network draws
    any duplicate, and one bit in the envelope carries the decision, so it
    stands even if duplication is switched off before the copy lands. Every
    other request runs its handler directly; only the first of its replies
    goes out. *)

type ('req, 'resp, 'note) envelope

type ('req, 'resp, 'note) t

type error = Timeout  (** no response within the deadline(s) *)

type retry_policy = {
  max_attempts : int;  (** total send attempts, >= 1; 1 = no retry *)
  base_backoff : Avdb_sim.Time.t;  (** wait before the 2nd attempt *)
  backoff_multiplier : float;  (** >= 1; backoff grows by this per attempt *)
  jitter : float;
      (** in [0,1]: each backoff is scaled by a factor uniform in
          [1-jitter, 1+jitter], drawn deterministically from the
          transport's own RNG stream *)
}

val no_retry : retry_policy
(** Single attempt — the classic fire-and-wait call. *)

val create :
  engine:Avdb_sim.Engine.t ->
  ?latency:Latency.t ->
  ?drop_probability:float ->
  ?duplicate_probability:float ->
  ?reorder_probability:float ->
  ?default_timeout:Avdb_sim.Time.t ->
  ?request_size:('req -> int) ->
  ?response_size:('resp -> int) ->
  ?notice_size:('note -> int) ->
  ?tracer:Avdb_obs.Tracer.t ->
  ?request_label:('req -> string) ->
  unit ->
  ('req, 'resp, 'note) t
(** Builds the underlying network too. [default_timeout] defaults to
    100 ms of virtual time. The three [*_size] estimators feed the byte
    counters; each defaults to a flat 64 bytes. The fault-injection probabilities are forwarded to
    {!Network.create}.

    With a [tracer], every {!call} opens a client span ["call:<label>"]
    (finished when the response arrives, or warned and finished on final
    timeout) and every first delivery of a request opens a server span
    ["serve:<label>"] that is a {e child of the caller's span across the
    wire} — the envelope carries the span id. [request_label] names those
    spans per request (default ["request"]). *)

val network : ('req, 'resp, 'note) t -> ('req, 'resp, 'note) envelope Network.t
val engine : ('req, 'resp, 'note) t -> Avdb_sim.Engine.t
val stats : ('req, 'resp, 'note) t -> Stats.t

val serve :
  ('req, 'resp, 'note) t ->
  Address.t ->
  handler:
    (src:Address.t ->
    span:Avdb_obs.Span.id option ->
    'req ->
    reply:('resp -> unit) ->
    unit) ->
  ?notice:(src:Address.t -> 'note -> unit) ->
  unit ->
  unit
(** Registers a node. [handler] receives each distinct request once, with a
    [reply] function that may be invoked immediately or from a later event
    (at most once; later invocations are ignored). Copies of an
    already-answered request that can repeat are answered from the reply
    cache without re-invoking [handler]; a copy arriving while the handler
    still owes the reply is dropped. [span] is the server-side span for this request
    (present only when the transport has a tracer); handlers may parent
    their own spans onto it. It is finished when [reply]'s response hits
    the wire. [notice] handles one-way messages; the default drops them. *)

val call :
  ('req, 'resp, 'note) t ->
  src:Address.t ->
  dst:Address.t ->
  ?timeout:Avdb_sim.Time.t ->
  ?retry:retry_policy ->
  ?span:Avdb_obs.Span.id ->
  'req ->
  (('resp, error) result -> unit) ->
  unit
(** Issues a request; the continuation runs exactly once, either with the
    response or with [Error Timeout] once every attempt's deadline passed.
    [span] is the caller's enclosing span: the per-call client span (and,
    across the wire, the server span) becomes its child.
    Retransmissions reuse the same request id, so a server that already
    executed the request replays its cached reply rather than executing it
    again. A response arriving during a backoff pause completes the call
    and cancels the pending retransmission. Counts exactly one
    correspondence for [src] per call (never per attempt). *)

val notify : ('req, 'resp, 'note) t -> src:Address.t -> dst:Address.t -> 'note -> unit
(** Fire-and-forget one-way message (half a correspondence in the paper's
    message-pair accounting; not counted as a correspondence here). *)

val pending_calls : ('req, 'resp, 'note) t -> int
(** Number of calls awaiting a response, retransmission or timeout
    (diagnostic). *)
