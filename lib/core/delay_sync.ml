open Avdb_net

(* A counter is linked into the version-ordered ring through [older] and
   [newer]; a counter never linked yet points at itself, so unlinking it
   is a no-op. *)
type counter = {
  item : string;
  mutable version : int;
  mutable cum : int;
  mutable older : counter;
  mutable newer : counter;
}

(* One origin's applied stamp on one item. *)
type stamp = { mutable s_version : int; mutable s_cum : int }

module Origins = Map.Make (Int)

(* One item's stamps, by origin: a map, not a hash table. A site hears
   about an item from each of its other subscribers, two at spread 3, and
   a table's sixteen-slot minimum would dominate the item's record. *)
type stamps = stamp Origins.t

(* The highest version applied from one origin. *)
type high = { mutable high : int }

(* What this site knows of one peer's hold on its counters. [acked]: the
   peer holds every counter stamped up to it. [sent]: the [seq] at the
   last notice sent to it, so every counter on the peer's items stamped up
   to it has gone out once. *)
type peer = { mutable acked : int; mutable sent : int }

type t = {
  counters : (string, counter) Hashtbl.t;
  ring : counter;
      (* sentinel: [ring.newer] is the oldest counter, [ring.older] the
         newest *)
  mutable dirty : counter list;  (* changed since [settled], each once *)
  mutable settled : int;  (* [seq] at the last ring restoration *)
  mutable seq : int;
  mutable flushed : int;  (* every change <= this was broadcast once *)
  peers : peer Int_table.t;
  mutable rr : int;  (* fanout rotation cursor *)
  mutable rot_left : int;  (* fanout flushes still owed this rotation *)
  mutable audience : Address.t list;
  mutable audience_topology : int;
  mutable audience_count : int;
  applied : high Int_table.t;  (* by origin *)
}

type counters = (string * int * int) list

let create () =
  let rec ring = { item = ""; version = 0; cum = 0; older = ring; newer = ring } in
  {
    counters = Hashtbl.create 16;
    ring;
    dirty = [];
    settled = 0;
    seq = 0;
    flushed = 0;
    peers = Int_table.create 8;
    rr = 0;
    rot_left = 0;
    audience = [];
    audience_topology = -1;
    audience_count = -1;
    applied = Int_table.create 8;
  }

(* --- sender --- *)

let queue_counter t c ~delta =
  t.seq <- t.seq + 1;
  if c.version <= t.settled then t.dirty <- c :: t.dirty;
  c.version <- t.seq;
  c.cum <- c.cum + delta

(* A new counter starts at version 0, which no settle has passed, so
   [queue_counter] puts it on the dirty list like any other. *)
let queue t ~item ~delta =
  (* Exception-style lookup: the steady state is always a hit, so skip
     [find_opt]'s [Some]. *)
  match Hashtbl.find t.counters item with
  | c -> queue_counter t c ~delta
  | exception Not_found ->
      let rec c = { item; version = 0; cum = 0; older = c; newer = c } in
      Hashtbl.add t.counters item c;
      queue_counter t c ~delta

let counter t ~item = Hashtbl.find t.counters item

let seq t = t.seq
let count t = Hashtbl.length t.counters

let version t ~item =
  match Hashtbl.find_opt t.counters item with Some c -> c.version | None -> 0

let cum t ~item = match Hashtbl.find_opt t.counters item with Some c -> c.cum | None -> 0
let owes_flush t = t.seq > t.flushed || t.rot_left > 0

let start_flush t ~force ~fanout audience =
  let new_deltas = t.seq > t.flushed in
  t.flushed <- t.seq;
  match fanout with
  | Some k when (not force) && k < List.length audience ->
      let n = List.length audience in
      if new_deltas then t.rot_left <- ((n + k - 1) / k) - 1
      else if t.rot_left > 0 then t.rot_left <- t.rot_left - 1;
      let start = t.rr mod n in
      t.rr <- t.rr + k;
      List.filteri (fun i _ -> (i - start + n) mod n < k) audience
  | Some _ | None ->
      t.rot_left <- 0;
      audience

(* Move the dirty counters, oldest stamp first, to the ring's newest end.
   Each is stamped after every counter still in place, so the ring comes
   out in version order. *)
let settle t =
  if t.dirty <> [] then begin
    let moved = List.sort (fun a b -> Int.compare a.version b.version) t.dirty in
    let ring = t.ring in
    List.iter
      (fun c ->
        c.older.newer <- c.newer;
        c.newer.older <- c.older;
        c.older <- ring.older;
        c.newer <- ring;
        ring.older.newer <- c;
        ring.older <- c)
      moved;
    t.dirty <- []
  end;
  t.settled <- t.seq

(* The counters stamped after [floor] on items [keep] accepts, in the
   wire form, name-sorted. *)
let slice t ~floor ~keep =
  settle t;
  let rec walk c acc =
    if c == t.ring || c.version <= floor then acc
    else walk c.older (if keep c.item then (c.item, c.version, c.cum) :: acc else acc)
  in
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) (walk t.ring.older [])

let every _ = true
let unflushed t =
  List.map (fun (item, _, cum) -> (item, cum)) (slice t ~floor:t.flushed ~keep:every)

let conveyed t ~peer =
  match Int_table.find t.peers (Address.to_int peer) with
  | p -> p.acked
  | exception Not_found -> 0

let peer t site =
  match Int_table.find t.peers site with
  | p -> p
  | exception Not_found ->
      let p = { acked = 0; sent = 0 } in
      Int_table.add t.peers site p;
      p

let note_conveyed t ~peer:addr ~upto =
  if upto > 0 then begin
    let p = peer t (Address.to_int addr) in
    if upto > p.acked then p.acked <- upto
  end

(* Whether a counter on an item [site] replicates is stamped after [mark]:
   the dirty list, then the ring newest first down to [mark]. A dirty
   counter met again in the ring is merely checked twice, and one met at a
   stamp at or below [mark] ends the walk rightly: every settled counter
   is stamped before it. Allocates nothing. *)
let rec dirty_news topology ~site ~mark = function
  | [] -> false
  | c :: rest ->
      (c.version > mark && Topology.interested topology ~site ~item:c.item)
      || dirty_news topology ~site ~mark rest

let rec ring_news ring topology ~site ~mark c =
  c != ring
  && c.version > mark
  && (Topology.interested topology ~site ~item:c.item
     || ring_news ring topology ~site ~mark c.older)

(* News for a peer: a counter on its items stamped after both its ack and
   the last notice sent to it. Under full replication every counter is on
   its items, and the newest is stamped [seq]. *)
let has_news t topology ~site ~mark =
  mark < t.seq
  && (Topology.is_full topology
     || dirty_news topology ~site ~mark t.dirty
     || ring_news t.ring topology ~site ~mark t.ring.older)

(* The targets a flush notifies, each with its entry: every one when
   forced, otherwise those with news. Allocates nothing when none has
   news, once every target has an entry. *)
let[@tail_mod_cons] rec notified t ~force topology = function
  | [] -> []
  | addr :: rest ->
      let site = Address.to_int addr in
      let p = peer t site in
      if force || has_news t topology ~site ~mark:(Int.max p.acked p.sent) then
        (addr, p) :: notified t ~force topology rest
      else notified t ~force topology rest

(* The entries of a name-sorted [slice] stamped after [upto] on items
   whose subscriber array ([subs], aligned with [slice] from index [i])
   holds [site]. *)
let[@tail_mod_cons] rec pick ~site ~upto subs i = function
  | [] -> []
  | ((_, version, _) as c) :: rest ->
      if version > upto && Topology.subscribes subs.(i) ~site then
        c :: pick ~site ~upto subs (i + 1) rest
      else pick ~site ~upto subs (i + 1) rest

(* The entries of a name-sorted [slice] stamped after [upto]: a payload
   under full replication. *)
let[@tail_mod_cons] rec newer ~upto = function
  | [] -> []
  | ((_, version, _) as c) :: rest ->
      if version > upto then c :: newer ~upto rest else newer ~upto rest

let rec min_ack floor = function
  | [] -> floor
  | (_, p) :: rest -> min_ack (Int.min floor p.acked) rest

(* Sends each notified target its payload out of [slice] and raises its
   sent mark. A function of its own rather than a closure, so that a
   flush allocates only its target list, the slice and the payloads. *)
let rec send_each t ~force topology ~slice ~subs send = function
  | [] -> ()
  | (addr, p) :: rest ->
      let upto = if force then 0 else p.acked in
      (match
         if Topology.is_full topology then newer ~upto slice
         else pick ~site:(Address.to_int addr) ~upto subs 0 slice
       with
      | [] -> ()
      | counters ->
          p.sent <- t.seq;
          send addr counters);
      send_each t ~force topology ~slice ~subs send rest

let payloads t ~force topology targets send =
  match notified t ~force topology targets with
  | [] -> ()
  | notified ->
      let slice = slice t ~floor:(if force then 0 else min_ack max_int notified) ~keep:every in
      (* Under partial replication, each counter's subscribers, resolved
         once for every target. *)
      let subs =
        if Topology.is_full topology then [||]
        else
          Array.of_list
            (List.map (fun (item, _, _) -> Topology.subscriber_array topology ~item) slice)
      in
      send_each t ~force topology ~slice ~subs send notified

let payload t topology peer =
  let upto = conveyed t ~peer in
  if t.seq <= upto then []
  else if Topology.is_full topology then slice t ~floor:upto ~keep:every
  else
    let site = Address.to_int peer in
    slice t ~floor:upto ~keep:(fun item -> Topology.interested topology ~site ~item)

let audience t topology ~self =
  let v = Topology.version topology and n = Hashtbl.length t.counters in
  if v <> t.audience_topology || n <> t.audience_count then begin
    let seen = Hashtbl.create 16 in
    Hashtbl.iter
      (fun item _ ->
        List.iter
          (fun i -> if i <> self then Hashtbl.replace seen i ())
          (Topology.subscribers topology ~item))
      t.counters;
    t.audience <-
      Hashtbl.fold (fun i () acc -> Address.of_int i :: acc) seen []
      |> List.sort Address.compare;
    t.audience_topology <- v;
    t.audience_count <- n
  end;
  t.audience

let own_state t ~want =
  Hashtbl.fold
    (fun item c acc -> if want item then (item, c.version, c.cum) :: acc else acc)
    t.counters []

(* --- receiver --- *)

let no_stamps = Origins.empty

(* Every origin without a stamp shares it; [restamp] never writes it. *)
let unstamped = { s_version = 0; s_cum = 0 }

let stamp stamps ~origin =
  match Origins.find origin stamps with st -> st | exception Not_found -> unstamped

let stamp_version st = st.s_version
let stamp_cum st = st.s_cum

let restamp stamps st ~origin ~version ~cum =
  if st == unstamped then Origins.add origin { s_version = version; s_cum = cum } stamps
  else begin
    st.s_version <- version;
    st.s_cum <- cum;
    stamps
  end

let applied_version stamps ~origin = (stamp stamps ~origin).s_version
let applied_total stamps = Origins.fold (fun _ st acc -> acc + st.s_cum) stamps 0

let fold_stamps stamps ~init ~f =
  Origins.fold (fun origin st acc -> f acc origin st.s_version st.s_cum) stamps init

let applied_high t ~origin =
  match Int_table.find t.applied origin with o -> o.high | exception Not_found -> 0

let raise_high t ~origin version =
  match Int_table.find t.applied origin with
  | o -> if version > o.high then o.high <- version
  | exception Not_found -> if version > 0 then Int_table.add t.applied origin { high = version }
