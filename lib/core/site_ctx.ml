(* The shared site context: the record every protocol module works on,
   plus the span, fence, routing, row and history helpers they all use.
   Protocol state is grouped by the one module that mutates it; the others
   may read it. *)

open Avdb_sim
open Avdb_net
open Avdb_store
open Avdb_av
open Avdb_txn

type role = Maker | Retailer

type shared = {
  engine : Engine.t;
  rpc : (Protocol.request, Protocol.response, Protocol.notice) Rpc.t;
  config : Config.t;
  topology : Topology.t;
      (* per-item bases, interest sets and the AV hierarchy; one copy for
         the whole cluster *)
  catalogue : Product.t array;
      (* [config.products] by position, the index [Topology.interest]
         returns; one copy for the whole cluster *)
  mutable n_members : int;
      (* membership is dense (site i has address i), so one counter
         replaces the old address list — a join is O(1), not an O(N) list
         copy *)
  tracer : Avdb_obs.Tracer.t;
}

type participant_txn = {
  p_txn : Database.txn;
  p_coordinator : Address.t;
  p_cohort : Address.t list;  (* everyone prepared, coordinator excluded *)
  p_item : string;
  p_delta : int;
  p_span : Avdb_obs.Span.id;  (* open from prepare until the decision *)
  mutable p_queries : int;  (* termination-protocol attempts so far *)
  mutable p_check : Engine.handle;
      (* the pending termination check, cancelled by the decision *)
}

type coord = {
  machine : Two_phase.Coordinator.t;
  finish : Update.outcome -> unit;
  mutable local_txn : Database.txn option;
  mutable local_finalized : bool;
  mutable ack_timer : Engine.handle;  (* the ack round's deadline, cancelled at cleanup *)
}

(* Per-item epoch-quorum commit state. The durable truth lives in the
   protocol log (intent / promise / accept / seal / floor records); this
   is the in-memory working set a recovery rebuilds from it. *)
type epoch_item = {
  ei_item : string;
  mutable ei_subs : Address.t list;  (* all subscribers, self included *)
  mutable ei_subs_version : int;  (* topology version the memo is valid for *)
  mutable ei_applied : int;  (* highest contiguously applied (sealed) epoch *)
  ei_buffer : (int, Txn_log.intent) Hashtbl.t;
      (* unsealed intents known here — own writes plus forwarded ones;
         what the next seal this site proposes will contain *)
  ei_sealed : (int, unit) Hashtbl.t;  (* txids inside applied seals (dedup) *)
  ei_stash : (int, Txn_log.intent list) Hashtbl.t;
      (* seals received ahead of a gap, applied once the pull fills it *)
  ei_waiters : (int, Update.outcome -> unit) Hashtbl.t;
      (* own txid -> submitting client, woken when a seal lands locally *)
  ei_acked : (int, int) Hashtbl.t;
      (* subscriber -> applied epoch it acknowledged; commit re-broadcast
         targets only laggards *)
  mutable ei_attempts : int;
      (* pump ticks without progress on the open epoch; escalates the
         candidate rank (and with it the ballot) every few ticks *)
  mutable ei_pump : bool;  (* a pump tick is scheduled *)
  mutable ei_busy : bool;  (* a propose/collect round is in flight *)
  mutable ei_fence : int;
      (* acceptor fence after an amnesia repair: refuse promises and
         accepts at or below it — the lost acceptor state may cover them *)
}

type t = {
  shared : shared;
  addr : Address.t;
  role : role;
  base_addr : Address.t;
  mutable db : Database.t;
  metrics : Update.Metrics.t;
  mutable txn_log : Txn_log.t;  (* durable 2PC and epoch records *)
  mutable history_seq : int;
  mutable next_txn_seq : int;
  (* Incarnation epoch, bumped by both crash and recover: every closure the
     site hands to the engine or the RPC layer is fenced on the epoch it
     was created under, so a continuation scheduled before a crash can
     never mutate post-recovery state. *)
  mutable epoch : int;
  (* Client operations still awaiting their outcome. Fencing would leave
     them unanswered across a crash (their continuations die with the
     incarnation), so [crash] fails each one explicitly - the submitting
     client is colocated with the site and observes the failure. *)
  inflight : (int, Update.outcome -> unit) Hashtbl.t;
  mutable next_op_seq : int;
  (* [peers_for ~item] memo, stamped with the topology version so joins
     invalidate it without any broadcast. Only populated under partial
     replication: its size is bounded by the site's interest set. *)
  peer_cache : (string, int * Address.t list) Hashtbl.t;
  (* Site_delay. *)
  av : Av_table.t;
  view : Peer_view.t;
  sel_state : Strategy.selection_state;
  rng : Rng.t;
  (* Lazy propagation, sender and receiver: per-item cumulative counters
     with strictly increasing change stamps, peer acknowledgements and the
     per-origin applied stamps that make propagation loss-, duplicate- and
     reorder-proof. Survives crashes (persisted metadata, like the AV
     table). *)
  sync : Delay_sync.t;
  mutable last_sync_apply : Time.t option;
      (* sim-time of the last remotely-originated sync batch this replica
         committed; feeds the [sync.apply_age_ms] staleness gauge *)
  prefetch_in_flight : (string, unit) Hashtbl.t;
  mutable sync_flush_scheduled : bool;
  (* Site_immediate. *)
  mutable locks : Lock_manager.t;
  participant : Two_phase.Participant.t;
  participant_txns : (int, participant_txn) Hashtbl.t;
  coordinators : (int, coord) Hashtbl.t;
  (* Site_epoch. Epoch-class items this site subscribes to, keyed by item.
     Built once at creation from the catalogue ∩ interest set; the table's
     presence check is the third branch of the checking function. *)
  epochs : (string, epoch_item) Hashtbl.t;
  (* Site_recovery. The disk beneath each durable log: armed faults are
     applied to the synced image at crash time, and the next recovery
     reads back through the damage-classifying parser instead of trusting
     the in-memory log. Costs nothing while no fault is armed. *)
  wal_sink : Fault_sink.t;
  txn_sink : Fault_sink.t;
  (* Items whose local replica can no longer be trusted after storage
     damage: they refuse prepares, reject updates and hide from reads
     until repaired from a donor (or forever, when none exists). Trusted
     in-memory metadata, like [sync]: survives crashes, so an
     interrupted repair resumes at the next recovery. *)
  quarantined : (string, unit) Hashtbl.t;
  (* Set (stickily) once the protocol log loses synced records: from then
     on "no log entry" no longer implies "never happened", so presumed
     abort is off the table and lost txids answer [No_record]. *)
  mutable amnesia : bool;
}

let stock_table = "stock"
let history_table = "history"

let stock_schema =
  Schema.create
    [
      { Schema.name = "amount"; ty = Value.Tint };
      { Schema.name = "regular"; ty = Value.Tbool };
    ]

let history_schema =
  Schema.create
    [
      { Schema.name = "item"; ty = Value.Tstr };
      { Schema.name = "delta"; ty = Value.Tint };
      { Schema.name = "path"; ty = Value.Tstr };
    ]

let network t = Rpc.network t.shared.rpc
let engine t = t.shared.engine
let config t = t.shared.config
let now t = Engine.now (engine t)
let is_down t = Network.is_down (network t) t.addr
let site_index t = Address.to_int t.addr
let topology t = t.shared.topology

(* Site indices as peer addresses, this site left out. *)
let others t indices =
  List.filter_map (fun i -> if i = site_index t then None else Some (Address.of_int i)) indices

let peers t = others t (List.init t.shared.n_members (fun i -> i))

(* --- per-item topology routing --- *)

let base_addr_for t ~item = Address.of_int (Topology.base_index (topology t) ~item)
let interested_in t ~item = Topology.interested (topology t) ~site:(site_index t) ~item

(* The item's subscribers minus this site: the AV-selection candidates,
   the Immediate Update cohort and the sync audience. Cached per item
   under partial replication (bounded by the interest set); computed
   directly under full replication, where caching every peer list would
   cost O(items × N) per site. *)
let peers_for t ~item =
  let topo = topology t in
  if Topology.is_full topo then peers t
  else begin
    let v = Topology.version topo in
    match Hashtbl.find_opt t.peer_cache item with
    | Some (v', l) when v' = v -> l
    | _ ->
        let l = others t (Topology.subscribers topo ~item) in
        Hashtbl.replace t.peer_cache item (v, l);
        l
  end

(* Causal spans, always attributed to this site at the current sim-time.
   Parents are either local enclosing spans or the server-side RPC span
   handed to request handlers (the caller's context across the wire). *)
let span_start t ?parent ~category name =
  Avdb_obs.Tracer.start t.shared.tracer ~at:(now t) ?parent
    ~site:(Address.to_int t.addr) ~category name

let span_field t sp key value = Avdb_obs.Tracer.set_field t.shared.tracer sp key value
let span_warn t sp = Avdb_obs.Tracer.warn t.shared.tracer sp
let span_end t sp = Avdb_obs.Tracer.finish t.shared.tracer ~at:(now t) sp

(* Hot paths test this before building span arguments (field strings,
   field lists), so a disabled tracer costs one load and branch. *)
let tracing t = Avdb_obs.Tracer.enabled t.shared.tracer

let span_field_int t sp key n = Avdb_obs.Tracer.set_field_int t.shared.tracer sp key n

let span_instant t ?parent ?status ?fields ~category name =
  ignore
    (Avdb_obs.Tracer.instant t.shared.tracer ~at:(now t) ?parent
       ~site:(Address.to_int t.addr) ?status ?fields ~category name)

(* Wrap a client continuation in the root span of an update: warn on a
   rejection, close the span, then pass the outcome on. *)
let finish_in t root finish outcome =
  (match outcome with
  | Update.Rejected _ -> span_warn t root
  | Update.Applied _ -> ());
  span_end t root;
  finish outcome

(* Epoch fence: [fenced t k] is [k] while the site stays in its current
   incarnation and a no-op after any crash or recovery in between. *)
let fenced t k =
  let epoch = t.epoch in
  fun x -> if t.epoch = epoch then k x

let retry_policy t = (config t).Config.rpc_retry

(* Run [k] after [delay] unless the incarnation changes first. [timer]
   returns the handle that cancels it. *)
let timer t ~delay k = Engine.schedule (engine t) ~delay (fenced t k)
let after t ~delay k = ignore (timer t ~delay k)

let amount_of t ~item =
  match Database.get_col t.db ~table:stock_table ~key:item ~col:"amount" with
  | Ok (Value.Int n) -> Some n
  | Ok _ | Error _ -> None

let item_known t ~item = Database.mem t.db ~table:stock_table ~key:item

(* Transaction ids for Immediate Update must be globally unique; reserve a
   large per-site range keyed by the address. *)
let fresh_txid t =
  let txid = (Address.to_int t.addr * 1_000_000) + t.next_txn_seq in
  t.next_txn_seq <- t.next_txn_seq + 1;
  txid

(* History keys must sort lexicographically in insertion order (the audit
   table iterates rows in key order). Zero-padded six-digit decimals do
   that for the first million rows; past that, each extra digit is
   announced by a leading '~' — which sorts after every digit — so longer
   keys follow all shorter ones (plain "%06d" would interleave them).
   Hand-rolled over [Printf.sprintf]: this sits on the applied-update hot
   path and the format-string interpreter was measurable there. *)
let history_key n =
  if n < 0 then invalid_arg "Site.history_key: negative";
  let digits =
    let rec loop d v = if v < 10 then d else loop (d + 1) (v / 10) in
    loop 1 n
  in
  let prefix = if digits > 6 then digits - 6 else 0 in
  let width = if digits > 6 then digits else 6 in
  let b = Bytes.make (prefix + width) '0' in
  Bytes.fill b 0 prefix '~';
  let rec fill i v =
    Bytes.set b i (Char.unsafe_chr (Char.code '0' + (v mod 10)));
    if v >= 10 then fill (i - 1) (v / 10)
  in
  fill (prefix + width - 1) n;
  Bytes.unsafe_to_string b

(* Audit trail: one row per locally-applied update when configured. Runs in
   its own committed transaction right after the stock change - the WAL
   orders them, so recovery keeps history and stock consistent. *)
let record_history t ~item ~delta ~path =
  if (config t).Config.record_history then begin
    let txn = Database.begin_txn t.db in
    let key = history_key t.history_seq in
    t.history_seq <- t.history_seq + 1;
    let row = [| Value.Str item; Value.Int delta; Value.Str path |] in
    match Database.insert txn ~table:history_table ~key row with
    | Ok () -> Database.commit txn
    | Error e ->
        Database.abort txn;
        failwith ("Site.record_history: " ^ e)
  end

(* Add [delta] to [item]'s row in one committed transaction and audit it
   under [path]: the new amount, or [None] (nothing applied) when the row
   refuses. *)
let commit_delta t ~item ~delta ~path =
  let txn = Database.begin_txn t.db in
  match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
  | Ok amount ->
      Database.commit txn;
      record_history t ~item ~delta ~path;
      Some amount
  | Error _ ->
      Database.abort txn;
      None
