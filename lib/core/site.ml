(* The accelerator's façade: accessors, the checking function, the reads,
   the Centralized baseline and [create] with the one request dispatch.
   Each update class lives in its own module over the shared context,
   in dependency order: Site_ctx, Site_delay, Site_immediate, Site_epoch,
   Site_membership, Site_recovery. *)

open Avdb_sim
open Avdb_net
open Avdb_store
open Avdb_av
open Avdb_txn
include Site_ctx

let addr t = t.addr
let role t = t.role
let base t = t.base_addr
let database t = t.db
let av_table t = t.av
let peer_view t = t.view
let metrics t = t.metrics
let txn_log t = t.txn_log

let quarantined_items t =
  Hashtbl.fold (fun item () acc -> item :: acc) t.quarantined []
  |> List.sort String.compare

let is_amnesiac t = t.amnesia
let arm_disk_fault = Site_recovery.arm_disk_fault
let crash = Site_recovery.crash
let recover = Site_recovery.recover
let join = Site_membership.join
let flush_sync = Site_delay.flush_sync
let flush_epochs = Site_epoch.flush_epochs
let epoch_applied = Site_epoch.epoch_applied
let epoch_unsealed = Site_epoch.epoch_unsealed

(* Heap words the site owns among those reachable from its replica +
   protocol state: stock rows, AV ledger, peer view, sync sender/receiver
   tables and the per-item records with their peer memos. Deliberately
   excludes the WAL: its checkpoint bounds it, but lets it reach at
   least 1,024 records whatever the catalogue — this is the quantity
   partial replication bounds by the interest set. Structure every site shares
   (the topology with its subscriber arrays, the catalogue with its item
   names, the placeholders a record holds before it takes a handle) is
   reachable from each site but owned by none. [Obj.reachable_words]
   counts a block once per call, so the words reachable from the shared
   roots alone are taken off. *)
let live_words t =
  let shared =
    Obj.repr
      ( t.shared.topology,
        t.shared.catalogue,
        Peer_view.no_entry,
        Av_table.no_entry,
        Delay_sync.no_counter )
  in
  Obj.reachable_words
    (Obj.repr (shared, Database.table t.db stock_table, t.av, t.view, t.sync, t.items))
  - Obj.reachable_words shared

let pending_sync_deltas t = Delay_sync.unflushed t.sync

(* Consistency-lag probe inputs: how far this replica's view of [item]
   trails its origin, measured in sync-counter versions. The origin's
   outbound stamp minus what this site has applied from it is a monotone
   staleness distance — 0 exactly when every delta the origin ever
   queued has landed here. *)
let sync_version t ~item = Delay_sync.version (counter_of t ~item)
let applied_sync_version t ~origin ~item =
  Delay_sync.applied_version (stamps_of t ~item) ~origin
let last_sync_apply t = t.last_sync_apply

(* --- Centralized baseline --- *)

(* The base's check-and-apply, for its own clients and for
   [Central_update] alike: the status, and the amount it leaves. *)
let central_apply t ~item ~delta =
  match stored t ~item with
  | exception Not_found -> (Protocol.Central_unknown_item, 0)
  | s ->
      let current = amount t s in
      if current + delta < 0 then (Protocol.Central_insufficient, current)
      else (Protocol.Central_applied, commit_delta t s ~delta)

let central_outcome item = function
  | Protocol.Central_applied -> Update.Applied Update.Central
  | Protocol.Central_insufficient -> Update.Rejected Update.Insufficient_stock
  | Protocol.Central_unknown_item -> Update.Rejected (Update.Unknown_item item)

let handle_central_update t ~item ~delta ~reply =
  if not (Address.equal t.addr (base_addr_for t ~item)) then
    reply (Protocol.Bad_request "central update at non-base site")
  else
    let status, new_amount = central_apply t ~item ~delta in
    reply (Protocol.Central_ack { status; new_amount })

let centralized_update t ~item ~delta ~finish =
  let root = span_start t ~category:"update" "update.central" in
  span_field t root "item" item;
  span_field_int t root "delta" delta;
  let finish outcome = finish_in t root finish outcome in
  let base_addr = base_addr_for t ~item in
  if Address.equal t.addr base_addr then
    finish (central_outcome item (fst (central_apply t ~item ~delta)))
  else
    Rpc.call t.shared.rpc ~src:t.addr ~dst:base_addr
      ~timeout:(config t).Config.rpc_timeout ~retry:(retry_policy t) ~span:root
      (Protocol.Central_update { item; delta })
      (fenced t (fun response ->
           match response with
           | Ok (Protocol.Central_ack { status; _ }) -> finish (central_outcome item status)
           | Ok _ -> finish (Update.Rejected Update.Txn_aborted)
           | Error Rpc.Timeout -> finish (Update.Rejected Update.Unreachable)))

(* --- public update entry point: the checking function --- *)

(* An operation's continuation: the first call completes it and any later
   call is dropped. The operation is [t.sync_op] while its submission call
   runs and has an [inflight] entry after that, until it completes. *)
let complete_once t op finish outcome =
  if t.sync_op = op then begin
    t.sync_op <- -1;
    finish outcome
  end
  else if Hashtbl.mem t.inflight op then begin
    Hashtbl.remove t.inflight op;
    finish outcome
  end

(* A client operation: counted on submission, recorded with its latency
   on completion, and completed at most once. [body t a b k] runs the
   operation, calling [k] with its outcome now or later. An operation
   still pending when [body] returns is entered in [inflight], so [crash]
   can fail it; one that completed inside the call never is. A crash run
   from inside the call (by another operation's callback) fences the
   pending operation's continuations, so it is failed here instead. *)
let client_op t callback body a b =
  let started = now t in
  t.metrics.Update.Metrics.submitted <- t.metrics.Update.Metrics.submitted + 1;
  let finish outcome =
    let result = { Update.outcome; latency = Time.diff (now t) started } in
    Update.Metrics.record t.metrics result;
    callback result
  in
  let op = t.next_op_seq in
  t.next_op_seq <- op + 1;
  let outer = t.sync_op and epoch = t.epoch in
  t.sync_op <- op;
  body t a b (complete_once t op finish);
  if t.sync_op = op then
    if t.epoch = epoch then Hashtbl.replace t.inflight op finish
    else finish (Update.Rejected Update.Unreachable);
  t.sync_op <- outer

(* The item is found once, as its record, and the checking function
   dispatches on the record alone. *)
let update_body t item delta finish =
  if is_down t then finish (Update.Rejected Update.Unreachable)
  else
    match stored t ~item with
    | exception Not_found -> finish (Update.Rejected (Update.Unknown_item item))
    | s -> (
        if is_quarantined t ~item then
          (* under repair after storage damage: refuse rather than write
             through an untrusted replica — corruption may cost
             availability, never consistency *)
          finish (Update.Rejected Update.Unreachable)
        else
          match (config t).Config.mode with
          | Config.Centralized -> centralized_update t ~item ~delta ~finish
          | Config.Autonomous -> (
              (* The checking function: epoch class by catalogue, else AV
                 defined => Delay Update, otherwise Immediate Update. *)
              match s.s_epoch with
              | Some st -> Site_epoch.epoch_update t st ~delta ~finish
              | None -> (
                  if s.s_av == Av_table.no_entry then
                    Site_immediate.immediate_update t s ~delta ~finish
                  else Site_delay.delay_update t s ~delta ~finish)))

let batch_body t deltas () finish =
  if is_down t || (config t).Config.mode = Config.Centralized then
    finish (Update.Rejected Update.Unreachable)
  else begin
    let bad =
      List.find_map
        (fun (item, _) ->
          match stored t ~item with
          | exception Not_found -> Some (Update.Unknown_item item)
          | s ->
              if is_quarantined t ~item then Some Update.Unreachable
              else if s.s_av == Av_table.no_entry then Some (Update.Not_regular item)
              else None)
        deltas
    in
    match bad with
    | Some reason -> finish (Update.Rejected reason)
    | None -> Site_delay.batch_update t ~deltas ~finish
  end

let submit_update t ~item ~delta callback = client_op t callback update_body item delta
let submit_batch t ~deltas callback = client_op t callback batch_body deltas ()

(* --- reads --- *)

(* Reads with heterogeneous consistency: a local read is free and possibly
   stale (the retailer requirement); an authoritative read round-trips to
   the base replica (the maker requirement) and costs one correspondence. *)
let read_local t ~item =
  if is_quarantined t ~item then None
  else
    match amount_of t ~item with
    | Some v when Mutation.enabled Mutation.Forget_own_writes ->
      (* Mutation: subtract the site's own not-yet-flushed deltas — the
         replica "forgets" writes this session already committed. *)
      let pending =
        Option.value ~default:0 (List.assoc_opt item (pending_sync_deltas t))
      in
      Some (v - pending)
  | r -> r

(* What the base serves an authoritative read, to a retailer's
   [Read_request] and to its own clients alike. *)
let authoritative_amount t ~item =
  if is_quarantined t ~item then
    (* quarantined replicas answer as if they held nothing: availability
       lost, consistency kept *)
    None
  else if Mutation.enabled Mutation.Stale_reads then
    (* Mutation: serve authoritative reads from a stale snapshot (the
       initial catalogue) instead of the live replica. *)
    List.find_map
      (fun p ->
        if String.equal p.Product.name item then Some p.Product.initial_amount else None)
      (config t).Config.products
  else amount_of t ~item

let read_authoritative t ~item callback =
  let base_addr = base_addr_for t ~item in
  if is_down t then
    ignore (Engine.schedule (engine t) ~delay:Time.zero (fun () -> callback (Error Update.Unreachable)))
  else if Address.equal t.addr base_addr then callback (Ok (authoritative_amount t ~item))
  else begin
    let root = span_start t ~category:"read" "read.authoritative" in
    span_field t root "item" item;
    let callback result =
      (match result with Error _ -> span_warn t root | Ok _ -> ());
      span_end t root;
      callback result
    in
    Rpc.call t.shared.rpc ~src:t.addr ~dst:base_addr
      ~timeout:(config t).Config.rpc_timeout ~retry:(retry_policy t) ~span:root
      (Protocol.Read_request { item })
      (fenced t (fun response ->
           match response with
           | Ok (Protocol.Read_value { amount }) -> callback (Ok amount)
           | Ok _ -> callback (Error Update.Txn_aborted)
           | Error Rpc.Timeout -> callback (Error Update.Unreachable)))
  end

(* --- construction --- *)

let create shared ~addr ~av_init =
  let config = shared.config in
  let interest = Topology.interest shared.topology ~site:(Address.to_int addr) in
  let db = Database.create ~name:(Address.to_string addr) () in
  ignore (Database.create_table db ~name:stock_table stock_schema);
  let txn = Database.begin_txn db in
  (* Partial replication starts here: only the products this site
     subscribes to get a local row — everything else is neither stored nor
     tracked, so the site's live state, and the cost of building it, is
     bounded by its interest set. *)
  Array.iter
    (fun p ->
      let product = shared.catalogue.(p) in
      let row =
        [| Value.Int product.Product.initial_amount; Value.Bool (Product.is_regular product) |]
      in
      match Database.insert txn ~table:stock_table ~key:product.Product.name row with
      | Ok () -> ()
      | Error e -> failwith ("Site.create: " ^ e))
    interest;
  Database.commit txn;
  let av = Av_table.create () in
  if config.Config.mode = Config.Autonomous then
    List.iter (fun (item, volume) -> Av_table.define av ~item ~volume) av_init;
  if shared.n_members < 1 then invalid_arg "Site.create: empty cluster";
  let base_addr = Address.of_int 0 in
  let epochs = Hashtbl.create 4 in
  Array.iter
    (fun p ->
      let product = shared.catalogue.(p) in
      let item = product.Product.name in
      if Product.is_epoch product then
        Hashtbl.replace epochs item
          {
            ei_item = item;
            ei_subs = [];
            ei_subs_version = -1;
            ei_applied = 0;
            ei_buffer = Hashtbl.create 8;
            ei_sealed = Hashtbl.create 16;
            ei_stash = Hashtbl.create 4;
            ei_waiters = Hashtbl.create 8;
            ei_acked = Hashtbl.create 4;
            ei_attempts = 0;
            ei_pump = false;
            ei_busy = false;
            ei_fence = 0;
          })
    interest;
  let t =
    {
      shared;
      addr;
      role = (if Address.equal addr base_addr then Maker else Retailer);
      base_addr;
      db;
      av;
      av_levels =
        lazy
          (Array.of_list
             (List.map (fun item -> Av_table.entry_or_no_entry av ~item) (Av_table.items av)));
      view = Peer_view.create ();
      sel_state = Strategy.create_state ();
      rng = Rng.split (Engine.rng shared.engine);
      locks = Lock_manager.create ~engine:shared.engine ~timeout:Protocol.lock_timeout;
      participant_txns = Hashtbl.create 16;
      coordinators = Hashtbl.create 16;
      txn_log = Txn_log.create ();
      wal_sink = Fault_sink.create ();
      txn_sink = Fault_sink.create ();
      quarantined = Hashtbl.create 4;
      amnesia = false;
      metrics = Update.Metrics.create ();
      sync = Delay_sync.create ();
      last_sync_apply = None;
      items = Hashtbl.create 8;
      sync_flush_scheduled = false;
      next_txn_seq = 0;
      epoch = 0;
      epochs;
      inflight = Hashtbl.create 8;
      next_op_seq = 0;
      sync_op = -1;
    }
  in
  Rpc.serve shared.rpc addr
    ~handler:(fun ~src ~span request ~reply ->
      match request with
      | Protocol.Av_request { item; amount; requester_available; sync } ->
          Site_delay.handle_av_request t ~src ~span ~item ~amount ~requester_available ~sync
            ~reply
      | Protocol.Central_update { item; delta } -> handle_central_update t ~item ~delta ~reply
      | Protocol.Prepare { txid; coordinator; cohort; item; delta } ->
          Site_immediate.handle_prepare t ~span ~txid ~coordinator ~cohort ~item ~delta ~reply
      | Protocol.Decision { txid; decision } ->
          Site_immediate.handle_decision t ~txid ~decision ~reply
      | Protocol.Read_request { item } ->
          reply (Protocol.Read_value { amount = authoritative_amount t ~item })
      | Protocol.Query_decision { txid } -> Site_immediate.handle_query_decision t ~txid ~reply
      | Protocol.Peer_decision_query { txid } ->
          Site_immediate.handle_peer_decision_query t ~txid ~reply
      | Protocol.Join_request { wanted } -> Site_membership.handle_join t ~wanted ~reply
      | Protocol.Epoch_intent { item; txid; origin; delta } ->
          Site_epoch.handle_epoch_intent t ~item ~txid ~origin ~delta ~reply
      | Protocol.Epoch_propose { item; epoch; ballot; seal } ->
          Site_epoch.handle_epoch_propose t ~src ~item ~epoch ~ballot ~seal ~reply
      | Protocol.Epoch_commit { item; epoch; seal } ->
          Site_epoch.handle_epoch_commit t ~src ~item ~epoch ~seal ~reply
      | Protocol.Epoch_pull { item; from_epoch } ->
          Site_epoch.handle_epoch_pull t ~item ~from_epoch ~reply
      | Protocol.Epoch_collect { item; epoch; ballot } ->
          Site_epoch.handle_epoch_collect t ~item ~epoch ~ballot ~reply)
    ~notice:(fun ~src notice ->
      match notice with
      | Protocol.Sync_counters { counters; av_info; ack } ->
          Site_delay.handle_sync t ~src ~counters ~av_info ~ack)
    ();
  t
