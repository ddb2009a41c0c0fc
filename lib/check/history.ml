open Avdb_sim
open Avdb_core

type op =
  | Update of { item : string; delta : int }
  | Batch of { deltas : (string * int) list }
  | Read_local of { item : string }
  | Read_auth of { item : string }

type resp =
  | Applied of Update.kind
  | Rejected of Update.reason
  | Read_value of int option
  | Read_failed of Update.reason

type entry = {
  id : int;
  site : int;
  op : op;
  inv_seq : int;
  invoked_at : Time.t;
  mutable resp_seq : int;
  mutable responded_at : Time.t;
  mutable resp : resp option;
  mutable n_responses : int;
}

type fault_kind = Crashed | Recovered
type fault = { f_site : int; f_at : Time.t; f_seq : int; f_kind : fault_kind }

type t = {
  mutable seq : int;  (* shared by invocations, responses and faults *)
  mutable rev_entries : entry list;
  mutable n_entries : int;
  mutable rev_faults : fault list;
}

let create () = { seq = 0; rev_entries = []; n_entries = 0; rev_faults = [] }
let entries t = List.rev t.rev_entries
let faults t = List.rev t.rev_faults
let length t = t.n_entries

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let invoke t ~site ~at op =
  let e =
    {
      id = t.n_entries;
      site;
      op;
      inv_seq = next_seq t;
      invoked_at = at;
      resp_seq = -1;
      responded_at = at;
      resp = None;
      n_responses = 0;
    }
  in
  t.rev_entries <- e :: t.rev_entries;
  t.n_entries <- t.n_entries + 1;
  e

let respond t e ~at resp =
  e.n_responses <- e.n_responses + 1;
  (* Keep the first response; a second one is recorded only as a count —
     the checker reports it as a double-fired continuation. *)
  if e.n_responses = 1 then begin
    e.resp_seq <- next_seq t;
    e.responded_at <- at;
    e.resp <- Some resp
  end

let record_fault t ~site ~at f_kind =
  t.rev_faults <- { f_site = site; f_at = at; f_seq = next_seq t; f_kind } :: t.rev_faults

(* Merge per-shard histories from a parallel run into one totally
   ordered history. Each shard's seq numbers are a valid order for its
   own events and increase with virtual time, so replaying all events
   sorted by (time, shard, shard-local seq) yields a total order that
   respects every shard's local order and virtual time globally — and is
   deterministic, since ties across shards break by shard rank. Entries
   are renumbered; invocation/response timestamps and double-response
   counts are preserved verbatim. *)
let merge ts =
  let out = create () in
  let events =
    List.concat
      (List.mapi
         (fun shard t ->
           List.concat_map
             (fun e ->
               (e.invoked_at, shard, e.inv_seq, `Inv e)
               ::
               (match e.resp with
               | Some _ -> [ (e.responded_at, shard, e.resp_seq, `Resp e) ]
               | None -> []))
             (entries t)
           @ List.map (fun f -> (f.f_at, shard, f.f_seq, `Fault f)) (faults t))
         ts)
  in
  let events =
    List.sort
      (fun (t1, s1, q1, _) (t2, s2, q2, _) ->
        match Avdb_sim.Time.compare t1 t2 with
        | 0 -> compare (s1, q1) (s2, q2)
        | c -> c)
      events
  in
  let remap : (int * int, entry) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, shard, _, ev) ->
      match ev with
      | `Inv e ->
          let e' = invoke out ~site:e.site ~at:e.invoked_at e.op in
          Hashtbl.replace remap (shard, e.id) e'
      | `Resp e -> (
          let e' = Hashtbl.find remap (shard, e.id) in
          match e.resp with
          | Some r ->
              for _ = 1 to e.n_responses do
                respond out e' ~at:e.responded_at r
              done
          | None -> ())
      | `Fault f -> record_fault out ~site:f.f_site ~at:f.f_at f.f_kind)
    events;
  out

(* --- instrumented wrappers --- *)

let site_index site = Avdb_net.Address.to_int (Site.addr site)

let resp_of_outcome = function
  | Update.Applied k -> Applied k
  | Update.Rejected r -> Rejected r

let submit_update t ~engine site ~item ~delta k =
  let e = invoke t ~site:(site_index site) ~at:(Engine.now engine) (Update { item; delta }) in
  Site.submit_update site ~item ~delta (fun result ->
      respond t e ~at:(Engine.now engine) (resp_of_outcome result.Update.outcome);
      k result)

let submit_batch t ~engine site ~deltas k =
  let e = invoke t ~site:(site_index site) ~at:(Engine.now engine) (Batch { deltas }) in
  Site.submit_batch site ~deltas (fun result ->
      respond t e ~at:(Engine.now engine) (resp_of_outcome result.Update.outcome);
      k result)

let read_local t ~engine site ~item =
  let e = invoke t ~site:(site_index site) ~at:(Engine.now engine) (Read_local { item }) in
  let v = Site.read_local site ~item in
  respond t e ~at:(Engine.now engine) (Read_value v);
  v

let read_authoritative t ~engine site ~item k =
  let e = invoke t ~site:(site_index site) ~at:(Engine.now engine) (Read_auth { item }) in
  Site.read_authoritative site ~item (fun result ->
      (match result with
      | Ok v -> respond t e ~at:(Engine.now engine) (Read_value v)
      | Error r -> respond t e ~at:(Engine.now engine) (Read_failed r));
      k result)

(* --- printing --- *)

let pp_op ppf = function
  | Update { item; delta } -> Format.fprintf ppf "update %s %+d" item delta
  | Batch { deltas } ->
      Format.fprintf ppf "batch [%s]"
        (String.concat "; " (List.map (fun (i, d) -> Printf.sprintf "%s %+d" i d) deltas))
  | Read_local { item } -> Format.fprintf ppf "read-local %s" item
  | Read_auth { item } -> Format.fprintf ppf "read-auth %s" item

let pp_resp ppf = function
  | Applied k -> Format.fprintf ppf "applied %a" Update.pp_kind k
  | Rejected r -> Format.fprintf ppf "rejected %a" Update.pp_reason r
  | Read_value (Some v) -> Format.fprintf ppf "value %d" v
  | Read_value None -> Format.fprintf ppf "value none"
  | Read_failed r -> Format.fprintf ppf "read failed %a" Update.pp_reason r

let pp_entry ppf e =
  Format.fprintf ppf "#%d site%d %a @@%a -> " e.id e.site pp_op e.op Time.pp e.invoked_at;
  match e.resp with
  | None -> Format.pp_print_string ppf "(pending)"
  | Some r ->
      Format.fprintf ppf "%a @@%a" pp_resp r Time.pp e.responded_at;
      if e.n_responses > 1 then Format.fprintf ppf " (x%d!)" e.n_responses

let pp ppf t =
  let evs =
    List.map (fun e -> (e.inv_seq, `E e)) (entries t)
    @ List.map (fun f -> (f.f_seq, `F f)) (faults t)
  in
  let evs = List.sort (fun (a, _) (b, _) -> compare a b) evs in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (_, ev) ->
      match ev with
      | `E e -> Format.fprintf ppf "%a@," pp_entry e
      | `F f ->
          Format.fprintf ppf "!! site%d %s @@%a@," f.f_site
            (match f.f_kind with Crashed -> "crashed" | Recovered -> "recovered")
            Time.pp f.f_at)
    evs;
  Format.fprintf ppf "@]"
