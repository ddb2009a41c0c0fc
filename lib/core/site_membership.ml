(* Dynamic membership: serving and installing the paper's initial
   delivery. The snapshot install path is shared with replica repair. *)

open Avdb_net
open Avdb_store
open Avdb_txn
open Site_ctx

(* Serve a joiner with the current replica plus the sync counters already
   folded into it: our own cumulative counters and everything we have
   applied from other origins. The joiner seeds its receiver state with
   these, so later notices apply only what the snapshot missed. *)
let handle_join t ~wanted ~reply =
  let want =
    match wanted with
    | None -> fun _ -> true
    | Some items ->
        let set = Hashtbl.create (List.length items) in
        List.iter (fun i -> Hashtbl.replace set i ()) items;
        fun item -> Hashtbl.mem set item
  in
  (* A quarantined row is exactly the state a joiner must never copy;
     send it donor-shopping instead. *)
  if Hashtbl.fold (fun item () acc -> acc || want item) t.quarantined false then
    reply (Protocol.Bad_request "item quarantined at donor")
  else begin
    (* Undo-based transactions write in place, so the raw table shows
       tentative 2PC deltas that may yet abort. Serve committed state:
       subtract every prepared-but-undecided delta, and list those
       transactions as [pending] so a repairing joiner can watch them
       resolve — a commit after the snapshot is otherwise invisible to
       it, non-regular items having no sync counters. *)
    let tentative = Hashtbl.create 8 in
    let note_tentative item delta =
      Hashtbl.replace tentative item
        (delta + Option.value ~default:0 (Hashtbl.find_opt tentative item))
    in
    let pending = ref [] in
    Hashtbl.iter
      (fun txid (p : participant_txn) ->
        if want p.p_item then begin
          note_tentative p.p_item p.p_delta;
          pending :=
            (txid, Address.to_int p.p_coordinator, p.p_item, p.p_delta) :: !pending
        end)
      t.participant_txns;
    Hashtbl.iter
      (fun txid (c : coord) ->
        if Two_phase.Coordinator.decision c.machine = None then
          match Txn_log.find t.txn_log ~txid with
          | Some e when want e.Txn_log.item ->
              if c.local_txn <> None && not c.local_finalized then
                note_tentative e.Txn_log.item e.Txn_log.delta;
              pending :=
                (txid, Address.to_int t.addr, e.Txn_log.item, e.Txn_log.delta)
                :: !pending
          | Some _ | None -> ())
      t.coordinators;
    let rows =
      Table.fold (Database.table t.db stock_table) ~init:[] ~f:(fun acc item row ->
          if want item then
            let amount =
              Value.as_int row.(0)
              - Option.value ~default:0 (Hashtbl.find_opt tentative item)
            in
            (item, amount, Value.as_bool row.(1)) :: acc
          else acc)
      |> List.rev
    in
    let own =
      List.map
        (fun (item, version, cum) -> (Address.to_int t.addr, item, version, cum))
        (Delay_sync.own_state t.sync ~want)
    in
    let applied =
      Hashtbl.fold
        (fun item s acc ->
          if want item then
            Delay_sync.fold_stamps s.s_stamps ~init:acc ~f:(fun acc origin version cum ->
                (origin, item, version, cum) :: acc)
          else acc)
        t.items []
    in
    let epochs =
      Hashtbl.fold
        (fun item st acc -> if want item then (item, st.ei_applied) :: acc else acc)
        t.epochs []
    in
    reply
      (Protocol.Join_snapshot
         { rows; sync_state = own @ applied; pending = !pending; epochs })
  end

(* Install a snapshot's rows in one transaction, overwriting the local
   ones, and adopt the donor's applied epochs (see
   {!Site_epoch.adopt_floor}); [false], with nothing installed, when a row
   is missing here. *)
let install_snapshot t ~rows ~epochs ~repair =
  let txn = Database.begin_txn t.db in
  let ok =
    List.for_all
      (fun (item, amount, _regular) ->
        Result.is_ok
          (Database.set_col txn ~table:stock_table ~key:item ~col:"amount" (Value.Int amount)))
      rows
  in
  if ok then begin
    Database.commit txn;
    List.iter (fun (item, applied) -> Site_epoch.adopt_floor t ~item ~applied ~repair) epochs
  end
  else Database.abort txn;
  ok

(* Fetch the initial data (the paper's initial delivery). Under full
   replication: one snapshot from the global base. Under partial
   replication there is no site that holds everything — the joiner groups
   its interest set by per-item base and fetches one scoped snapshot per
   distinct base, so join traffic is bounded by the interest set, never by
   the catalogue. Each snapshot also seeds the sync receiver state with
   the counters already folded into its rows. *)
let join t callback =
  let root = span_start t ~category:"membership" "membership.join" in
  let callback result =
    (match result with Error _ -> span_warn t root | Ok () -> ());
    span_end t root;
    callback result
  in
  let fetch ~dst ~wanted k =
    Rpc.call t.shared.rpc ~src:t.addr ~dst ~timeout:(config t).Config.rpc_timeout
      ~retry:(retry_policy t) ~span:root
      (Protocol.Join_request { wanted })
      (fenced t (fun response ->
           match response with
           | Ok (Protocol.Join_snapshot { rows; sync_state; pending = _; epochs }) ->
               if install_snapshot t ~rows ~epochs ~repair:false then begin
                 Site_delay.seed_sync t sync_state;
                 k (Ok ())
               end
               else k (Error Update.Txn_aborted)
           | Ok _ -> k (Error Update.Txn_aborted)
           | Error Rpc.Timeout -> k (Error Update.Unreachable)))
  in
  if Topology.is_full (topology t) then begin
    if Address.equal t.addr t.base_addr then callback (Ok ())
    else fetch ~dst:t.base_addr ~wanted:None callback
  end
  else begin
    (* group this site's interest set (= its bootstrapped rows) by base *)
    let by_base = Hashtbl.create 8 in
    Table.fold (Database.table t.db stock_table) ~init:() ~f:(fun () item _ ->
        let b = base_addr_for t ~item in
        if not (Address.equal b t.addr) then
          Hashtbl.replace by_base b (item :: Option.value ~default:[] (Hashtbl.find_opt by_base b)));
    let groups = Hashtbl.fold (fun b items acc -> (b, items) :: acc) by_base [] in
    match groups with
    | [] -> callback (Ok ())
    | _ ->
        let outstanding = ref (List.length groups) in
        let failed = ref None in
        List.iter
          (fun (dst, items) ->
            fetch ~dst ~wanted:(Some items) (fun result ->
                (match result with
                | Ok () -> ()
                | Error e -> if !failed = None then failed := Some e);
                decr outstanding;
                if !outstanding = 0 then
                  callback (match !failed with Some e -> Error e | None -> Ok ())))
          groups
  end
