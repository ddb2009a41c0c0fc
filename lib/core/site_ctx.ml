(* The shared site context: the record every protocol module works on,
   plus the span, fence, routing and row helpers they all use.
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

(* One site's record of one item it stores, the only way the site reads
   or adds to the item's row: built on the item's first use (an update, a
   read, a prepare, a seal, a received sync counter or a join snapshot's
   stamp), so building a site costs nothing more. It is the one place
   the site keeps the item's handles:
   - [s_row], the stock row's amount column, taken again when recovery
     replaced the database or the stock table removed a row
     ([Database.handle_live]);
   - [s_av], the AV entry or [Av_table.no_entry] for an item without AV,
     taken when the record is built: only [Site.create] defines AV, so
     the entry never changes;
   - [s_counter], the sync counter, made with [s_av] at the item's first
     local change, and [s_view], the peer-view entry, taken at the
     item's first observation: neither is ever removed, so each is taken
     once. Until then each holds a shared placeholder
     ([Delay_sync.no_counter], [Peer_view.no_entry]) rather than an
     option, which would box every taken handle.
   Records are never removed either, so [s_counter] and [s_stamps], the
   counters applied here from each origin, survive crashes with the
   record. *)
type stored = {
  s_item : string;
  mutable s_row : Database.handle;
  s_av : Av_table.entry;
  mutable s_counter : Delay_sync.counter;  (* [no_counter] until the first queue *)
  mutable s_stamps : Delay_sync.stamps;  (* [no_stamps] until the first apply or seed *)
  mutable s_view : Peer_view.entry;  (* [no_entry] until the first observation *)
  s_epoch : epoch_item option;  (* [Some] exactly for an epoch-class item *)
  mutable s_peers : Address.t list;  (* the [peers_for] memo *)
  mutable s_peers_version : int;  (* the topology version of [s_peers], or -1 *)
  mutable s_refill : bool;  (* a background AV refill is in flight *)
}

type t = {
  shared : shared;
  addr : Address.t;
  role : role;
  base_addr : Address.t;
  mutable db : Database.t;
  metrics : Update.Metrics.t;
  mutable txn_log : Txn_log.t;  (* durable 2PC and epoch records *)
  mutable next_txn_seq : int;
  (* Incarnation epoch, bumped by both crash and recover: every closure the
     site hands to the engine or the RPC layer is fenced on the epoch it
     was created under, so a continuation scheduled before a crash can
     never mutate post-recovery state. *)
  mutable epoch : int;
  (* Client operations still awaiting their outcome when their submission
     returned. Fencing would leave them unanswered across a crash (their
     continuations die with the incarnation), so [crash] fails each one
     explicitly - the submitting client is colocated with the site and
     observes the failure. An operation that completes inside its own
     submission call, as a local Delay commit does, is never entered: it
     leaves nothing for a crash to fail. *)
  inflight : (int, Update.outcome -> unit) Hashtbl.t;
  mutable next_op_seq : int;
  mutable sync_op : int;
      (* the operation whose submission call is running and has not yet
         completed, or -1 *)
  (* The record of each item this site has used, by name: the one string
     lookup an update, a read or a received counter makes. Bounded by the
     interest set, since only an item with a stored row gets one. *)
  items : (string, stored) Hashtbl.t;
  (* Site_delay. *)
  av : Av_table.t;
  av_levels : Av_table.entry array Lazy.t;
      (* every AV entry, sorted by item: what a grant reply reports,
         taken at the first grant since only [Site.create] defines AV,
         so building a site sorts nothing *)
  view : Peer_view.t;
  sel_state : Strategy.selection_state;
  rng : Rng.t;
  (* Lazy propagation, sender and receiver: per-item cumulative counters
     with strictly increasing change stamps, peer acknowledgements and
     per-origin high-water marks. With the applied stamps the items'
     records keep, they make propagation loss-, duplicate- and
     reorder-proof. Survives crashes (persisted metadata, like the AV
     table). *)
  sync : Delay_sync.t;
  mutable last_sync_apply : Time.t option;
      (* sim-time of the last remotely-originated sync batch this replica
         committed; feeds the [sync.apply_age_ms] staleness gauge *)
  mutable sync_flush_scheduled : bool;
  (* Site_immediate. *)
  mutable locks : Lock_manager.t;
  participant_txns : (int, participant_txn) Hashtbl.t;
  coordinators : (int, coord) Hashtbl.t;
  (* Site_epoch. Epoch-class items this site subscribes to, keyed by item.
     Built once at creation from the catalogue ∩ interest set; an item's
     record keeps its entry for the checking function. *)
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

let stock_schema =
  Schema.create
    [
      { Schema.name = "amount"; ty = Value.Tint };
      { Schema.name = "regular"; ty = Value.Tbool };
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

(* --- per-item handles --- *)

let row_handle t ~item = Database.handle t.db ~table:stock_table ~key:item ~col:"amount"

(* The stored item's row handle, taken again if it is no longer live.
   Raises [Not_found] when the current database has no row for the item. *)
let row t s =
  if Database.handle_live t.db s.s_row then s.s_row
  else begin
    let h = row_handle t ~item:s.s_item in
    s.s_row <- h;
    h
  end

(* The item's record with a live row handle, found with one string lookup
   and built on first use: the "is the item stored here" test. Raises
   [Not_found] when it is not, building nothing. *)
let stored t ~item =
  match Hashtbl.find t.items item with
  | s ->
      ignore (row t s);
      s
  | exception Not_found ->
      let s =
        {
          s_item = item;
          s_row = row_handle t ~item;
          s_av = Av_table.entry_or_no_entry t.av ~item;
          s_counter = Delay_sync.no_counter;
          s_stamps = Delay_sync.no_stamps;
          s_view = Peer_view.no_entry;
          s_epoch = Hashtbl.find_opt t.epochs item;
          s_peers = [];
          s_peers_version = -1;
          s_refill = false;
        }
      in
      Hashtbl.add t.items item s;
      s

(* The item's sync counter and applied stamps, read by name: the
   placeholders for an item with no record. *)
let counter_of t ~item =
  match Hashtbl.find t.items item with
  | s -> s.s_counter
  | exception Not_found -> Delay_sync.no_counter

let stamps_of t ~item =
  match Hashtbl.find t.items item with
  | s -> s.s_stamps
  | exception Not_found -> Delay_sync.no_stamps

(* The stored item's peer-view entry, taken on its first observation. *)
let view_entry t s =
  if s.s_view == Peer_view.no_entry then s.s_view <- Peer_view.entry t.view ~item:s.s_item;
  s.s_view

(* The stored item's amount, uncommitted 2PC writes included. *)
let amount t s = Database.get_int_handle t.db (row t s)

let amount_of t ~item =
  match stored t ~item with s -> Some (amount t s) | exception Not_found -> None

(* The item's subscribers minus this site: the AV-selection candidates,
   the Immediate Update cohort and the repair donors. Kept on the record
   under partial replication, stamped with the topology version so a join
   invalidates it; computed directly under full replication, where keeping
   every peer list would cost O(items × N) per site. *)
let peers_for t s =
  let topo = topology t in
  if Topology.is_full topo then peers t
  else begin
    let v = Topology.version topo in
    if s.s_peers_version <> v then begin
      s.s_peers <- others t (Topology.subscribers topo ~item:s.s_item);
      s.s_peers_version <- v
    end;
    s.s_peers
  end

(* The checking function and the reads consult the table on every call,
   and in most runs it is empty: the length test spares the string hash. *)
let is_quarantined t ~item = Hashtbl.length t.quarantined > 0 && Hashtbl.mem t.quarantined item

(* Transaction ids for Immediate Update must be globally unique; reserve a
   large per-site range keyed by the address. *)
let txids_per_site = 1_000_000

let fresh_txid t =
  let txid = (Address.to_int t.addr * txids_per_site) + t.next_txn_seq in
  t.next_txn_seq <- t.next_txn_seq + 1;
  txid

(* The inverse of [fresh_txid] on a txid this site allocated: keep the
   allocator above it. *)
let reserve_txid t txid =
  let seq = txid - (Address.to_int t.addr * txids_per_site) in
  if seq >= t.next_txn_seq then t.next_txn_seq <- seq + 1

(* Add [delta] to the stored item's row in one committed transaction:
   the new amount. *)
let commit_delta t s ~delta =
  let txn = Database.begin_txn t.db in
  let amount = Database.add_int_handle txn (row t s) delta in
  Database.commit txn;
  amount
