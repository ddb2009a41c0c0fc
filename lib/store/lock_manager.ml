open Avdb_sim

type owner = int

(* A key's lock lives in the table while it is held: the grant that finds
   the key free makes it, and the release that finds no waiter drops it
   and sets its holder to [nobody], so a stale claim on it releases
   nothing. Every waiter of a lock is live: a grant, an expiry or the
   owner's [release_all] takes it out of the list. *)
type lock = {
  key : string;
  mutable holder : owner;
  mutable waiters : request list;  (* oldest first *)
}

and request = {
  owner : owner;
  lock : lock;
  continuation : (unit, [ `Timeout ]) result -> unit;
  mutable timer : Engine.handle;
}

let nobody = min_int

module Keys = Hashtbl.Make (String)
module Owners = Hashtbl.Make (Int)

type t = {
  engine : Engine.t;
  timeout : Time.t;
  locks : lock Keys.t;
  claims : lock list Owners.t;
      (* per owner: the locks it holds or waits on, newest first; a lock
         may appear twice, or after it was freed *)
}

let create ~engine ~timeout =
  { engine; timeout; locks = Keys.create 16; claims = Owners.create 16 }

let claim t owner l =
  match Owners.find t.claims owner with
  | ls -> Owners.replace t.claims owner (l :: ls)
  | exception Not_found -> Owners.add t.claims owner [ l ]

(* Grants [l] down its queue while the head can hold it: any waiter when
   the lock is free, then each one whose owner holds it already. The
   continuation may act on the table; the loop reads [l] afresh after it. *)
let rec pump t l =
  match l.waiters with
  | r :: rest when l.holder = nobody || l.holder = r.owner ->
      l.waiters <- rest;
      l.holder <- r.owner;
      Engine.cancel t.engine r.timer;
      r.continuation (Ok ());
      pump t l
  | _ :: _ | [] -> ()

let release t l =
  l.holder <- nobody;
  match l.waiters with [] -> Keys.remove t.locks l.key | _ :: _ -> pump t l

let expire r =
  let l = r.lock in
  l.waiters <- List.filter (fun w -> w != r) l.waiters;
  r.continuation (Error `Timeout)

let acquire t ~owner ~key continuation =
  match Keys.find t.locks key with
  | exception Not_found ->
      let l = { key; holder = owner; waiters = [] } in
      Keys.add t.locks key l;
      claim t owner l;
      continuation (Ok ())
  | { holder; waiters = []; _ } when holder = owner -> continuation (Ok ())
  | l ->
      let r = { owner; lock = l; continuation; timer = Engine.no_timer } in
      r.timer <- Engine.schedule t.engine ~delay:t.timeout (fun () -> expire r);
      l.waiters <- l.waiters @ [ r ];
      claim t owner l

let[@tail_mod_cons] rec drop_owner t owner = function
  | [] -> []
  | r :: rest when r.owner = owner ->
      Engine.cancel t.engine r.timer;
      drop_owner t owner rest
  | r :: rest -> r :: drop_owner t owner rest

let rec drop_waiting t owner = function
  | [] -> ()
  | l :: rest ->
      l.waiters <- drop_owner t owner l.waiters;
      drop_waiting t owner rest

let rec release_held t owner = function
  | [] -> ()
  | l :: rest ->
      if l.holder = owner then release t l;
      release_held t owner rest

let release_all t ~owner =
  match Owners.find t.claims owner with
  | exception Not_found -> ()
  | claimed ->
      Owners.remove t.claims owner;
      (* Drop queued requests first so releasing keys cannot grant them. *)
      drop_waiting t owner claimed;
      release_held t owner claimed

let holder t ~key =
  match Keys.find t.locks key with l -> Some l.holder | exception Not_found -> None

let is_held t ~key = Keys.mem t.locks key

let waiting t ~key =
  match Keys.find t.locks key with
  | l -> List.length l.waiters
  | exception Not_found -> 0
