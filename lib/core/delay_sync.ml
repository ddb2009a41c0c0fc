open Avdb_net
open Avdb_av

(* A counter is linked into the version-ordered ring through [older] and
   [newer]; a counter never linked yet points at itself, so unlinking it
   is a no-op. It keeps [av], its item's AV entry or [Av_table.no_entry],
   given when it is made, and [subs], the item's subscriber array, a memo
   taken on first use and again once the topology version has moved past
   [subs_version] (never taken under full replication, where every peer
   subscribes). *)
type counter = {
  item : string;
  av : Av_table.entry;
  mutable version : int;
  mutable cum : int;
  mutable older : counter;
  mutable newer : counter;
  mutable subs : int array;
  mutable subs_version : int;  (* -1 until [subs] is first taken *)
}

(* One origin's applied stamp on one item. *)
type stamp = { mutable s_version : int; mutable s_cum : int }

module Origins = Map.Make (Int)

(* One item's stamps, by origin: a map, not a hash table. A site hears
   about an item from each of its other subscribers, two at spread 3, and
   a table's sixteen-slot minimum would dominate the item's record. *)
type stamps = stamp Origins.t

(* What this site knows of one peer site, as sender and as receiver: one
   entry per peer, found once. [acked]: the peer holds every counter
   stamped up to it. [sent]: the [seq] at the last notice sent to it, so
   every counter on the peer's items stamped up to it has gone out once.
   [high]: the highest version applied from the peer, the one ack a
   notice to it carries. *)
type peer = { site : int; mutable acked : int; mutable sent : int; mutable high : int }

type t = {
  mutable count : int;  (* counters queued at least once *)
  ring : counter;
      (* sentinel: [ring.newer] is the oldest counter, [ring.older] the
         newest *)
  mutable dirty : counter list;  (* changed since [settled], each once *)
  mutable settled : int;  (* [seq] at the last ring restoration *)
  mutable seq : int;
  mutable flushed : int;  (* every change <= this was broadcast once *)
  peers : peer Int_table.t;  (* by site *)
  mutable rr : int;  (* fanout rotation cursor *)
  mutable rot_left : int;  (* fanout flushes still owed this rotation *)
  mutable audience : peer list;
  (* What [audience] was built for: under partial replication the
     topology version and the counter count; under full replication
     [full_audience] and the topology's site count. *)
  mutable audience_topology : int;
  mutable audience_count : int;
}

type counters = (string * int * int) list

let make_counter ~item ~av =
  let rec c =
    { item; av; version = 0; cum = 0; older = c; newer = c; subs = [||]; subs_version = -1 }
  in
  c

let no_counter = make_counter ~item:"" ~av:Av_table.no_entry
let full_audience = -2

let create () =
  {
    count = 0;
    ring = make_counter ~item:"" ~av:Av_table.no_entry;
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
  }

(* --- sender --- *)

(* A new counter starts at version 0, which no settle has passed, so its
   first queue counts it and puts it on the dirty list like any other. *)
let queue t c ~delta =
  if c == no_counter then invalid_arg "Delay_sync.queue: no_counter";
  t.seq <- t.seq + 1;
  if c.version <= t.settled then begin
    if c.version = 0 then t.count <- t.count + 1;
    t.dirty <- c :: t.dirty
  end;
  c.version <- t.seq;
  c.cum <- c.cum + delta

let seq t = t.seq
let count t = t.count
let version c = c.version
let cum c = c.cum
let owes_flush t = t.seq > t.flushed || t.rot_left > 0

(* The counter's subscriber memo: the item's subscriber array, taken again
   when the topology version moves. *)
let subs topology c =
  let v = Topology.version topology in
  if c.subs_version <> v then begin
    c.subs <- Topology.subscriber_array topology ~item:c.item;
    c.subs_version <- v
  end;
  c.subs

(* Whether [site] replicates the counter's item. *)
let reaches topology c ~site =
  Topology.is_full topology || Topology.subscribes (subs topology c) ~site

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

(* Moves each counter, in list order, to the ring's newest end. *)
let rec relink ring = function
  | [] -> ()
  | c :: rest ->
      c.older.newer <- c.newer;
      c.newer.older <- c.older;
      c.older <- ring.older;
      c.newer <- ring;
      ring.older.newer <- c;
      ring.older <- c;
      relink ring rest

(* Sorting short counter lists. [List.sort] builds its merge closures on
   every call, more than the cells of a short result, so a list of at
   most [short] counters sorts by insertion instead, in top-level
   functions that allocate list cells only. The keys are unique
   (versions are, and so are a site's item names), so the order is
   [List.sort]'s. *)
let short = 8

let by_version a b = Int.compare a.version b.version
let by_name a b = String.compare a.item b.item

let[@tail_mod_cons] rec insert cmp c = function
  | [] -> [ c ]
  | d :: rest as l -> if cmp c d < 0 then c :: l else d :: insert cmp c rest

let rec insertion cmp sorted = function
  | [] -> sorted
  | c :: rest -> insertion cmp (insert cmp c sorted) rest

let sort_counters cmp = function
  | ([] | [ _ ]) as l -> l
  | l when List.compare_length_with l short > 0 -> List.sort cmp l
  | l -> insertion cmp [] l

(* Move the dirty counters, oldest stamp first, to the ring's newest end.
   Each is stamped after every counter still in place, so the ring comes
   out in version order. *)
let settle t =
  if t.dirty <> [] then begin
    relink t.ring (sort_counters by_version t.dirty);
    t.dirty <- []
  end;
  t.settled <- t.seq

(* From [c] down the ring to the first counter stamped at or before
   [floor], each counter consed onto [acc], oldest first. *)
let rec walk_newer ring ~floor c acc =
  if c == ring || c.version <= floor then acc else walk_newer ring ~floor c.older (c :: acc)

(* The counters stamped after [floor], name-sorted: the slice a payload
   is cut from. *)
let newer_than t ~floor =
  settle t;
  sort_counters by_name (walk_newer t.ring ~floor t.ring.older [])

let unflushed t = List.map (fun c -> (c.item, c.cum)) (newer_than t ~floor:t.flushed)

let peer t ~site =
  match Int_table.find t.peers site with
  | p -> p
  | exception Not_found ->
      let p = { site; acked = 0; sent = 0; high = 0 } in
      Int_table.add t.peers site p;
      p

let peer_address p = Address.of_int p.site
let peer_high p = p.high
let note_conveyed p ~upto = if upto > p.acked then p.acked <- upto

(* Whether a counter on an item [site] replicates is stamped after [mark]:
   the dirty list, then the ring newest first down to [mark]. A dirty
   counter met again in the ring is merely checked twice, and one met at a
   stamp at or below [mark] ends the walk rightly: every settled counter
   is stamped before it. Reads each counter's subscriber memo; allocates
   nothing. *)
let rec dirty_news topology ~site ~mark = function
  | [] -> false
  | c :: rest ->
      (c.version > mark && Topology.subscribes (subs topology c) ~site)
      || dirty_news topology ~site ~mark rest

let rec ring_news ring topology ~site ~mark c =
  c != ring
  && c.version > mark
  && (Topology.subscribes (subs topology c) ~site || ring_news ring topology ~site ~mark c.older)

(* News for a peer: a counter on its items stamped after both its ack and
   the last notice sent to it. Under full replication every counter is on
   its items, and the newest is stamped [seq]. *)
let has_news t topology p =
  let mark = Int.max p.acked p.sent in
  mark < t.seq
  && (Topology.is_full topology
     || dirty_news topology ~site:p.site ~mark t.dirty
     || ring_news t.ring topology ~site:p.site ~mark t.ring.older)

(* The targets a flush notifies: every one when forced, otherwise those
   with news. Allocates nothing when none has news. *)
let[@tail_mod_cons] rec notified t ~force topology = function
  | [] -> []
  | p :: rest ->
      if force || has_news t topology p then p :: notified t ~force topology rest
      else notified t ~force topology rest

(* The counters of a name-sorted [slice] stamped after [upto] on items
   [site] replicates, in the wire form: a payload. *)
let[@tail_mod_cons] rec pick topology ~site ~upto = function
  | [] -> []
  | c :: rest ->
      if c.version > upto && reaches topology c ~site then
        (c.item, c.version, c.cum) :: pick topology ~site ~upto rest
      else pick topology ~site ~upto rest

(* The payload's [av_info]: the available AV on the item of every counter
   of [slice] that [picked], [pick]'s payload from it, holds and whose
   item has AV, read through the counters' AV entries, in payload order.
   [picked] is in slice order and shares each counter's item, so a
   pointer comparison tells which counters it holds. *)
let[@tail_mod_cons] rec levels slice picked =
  match (slice, picked) with
  | [], _ | _, [] -> []
  | c :: rest, (item, _, _) :: more ->
      if item != c.item then levels rest picked
      else if c.av == Av_table.no_entry then levels rest more
      else (item, Av_table.entry_available c.av) :: levels rest more

let rec min_ack floor = function
  | [] -> floor
  | p :: rest -> min_ack (Int.min floor p.acked) rest

(* Sends each notified target its payload out of [slice], raises its sent
   mark and returns whether any went out. A function of its own rather
   than a closure, so that a flush allocates only its target list, the
   slice and the payloads. *)
let rec send_each t ~force topology ~slice ctx send sent = function
  | [] -> sent
  | p :: rest -> (
      let upto = if force then 0 else p.acked in
      match pick topology ~site:p.site ~upto slice with
      | [] -> send_each t ~force topology ~slice ctx send sent rest
      | counters ->
          p.sent <- t.seq;
          send ctx p counters (levels slice counters);
          send_each t ~force topology ~slice ctx send true rest)

let payloads t ~force topology targets ctx send =
  match notified t ~force topology targets with
  | [] -> false
  | notified ->
      let slice = newer_than t ~floor:(if force then 0 else min_ack max_int notified) in
      send_each t ~force topology ~slice ctx send false notified

let payload t topology addr =
  let site = Address.to_int addr in
  let upto = match Int_table.find t.peers site with p -> p.acked | exception Not_found -> 0 in
  if t.seq <= upto then [] else pick topology ~site ~upto (newer_than t ~floor:upto)

(* [f] over every counter once, leaving the ring as it is: the ring's
   counters, then the dirty ones a settle has not linked yet. A dirty
   counter that was settled before its latest change is still linked,
   and met in the ring. *)
let fold_counters t init f =
  let rec walk c acc = if c == t.ring then acc else walk c.newer (f c acc) in
  List.fold_left
    (fun acc c -> if c.older == c then f c acc else acc)
    (walk t.ring.newer init) t.dirty

let audience t topology ~self =
  if Topology.is_full topology then begin
    let members = Topology.n_sites topology in
    if t.audience_topology <> full_audience || t.audience_count <> members then begin
      let rec every_member i acc =
        if i < 0 then acc
        else every_member (i - 1) (if i = self then acc else peer t ~site:i :: acc)
      in
      t.audience <- every_member (members - 1) [];
      t.audience_topology <- full_audience;
      t.audience_count <- members
    end
  end
  else begin
    let v = Topology.version topology and n = t.count in
    if v <> t.audience_topology || n <> t.audience_count then begin
      let sites =
        fold_counters t [] (fun c acc ->
            Array.fold_left (fun acc i -> if i = self then acc else i :: acc) acc (subs topology c))
      in
      t.audience <- List.map (fun site -> peer t ~site) (List.sort_uniq Int.compare sites);
      t.audience_topology <- v;
      t.audience_count <- n
    end
  end;
  t.audience

let own_state t ~want =
  fold_counters t [] (fun c acc ->
      if want c.item then (c.item, c.version, c.cum) :: acc else acc)

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

let raise_high p version = if version > p.high then p.high <- version

let applied_high t ~origin =
  match Int_table.find t.peers origin with p -> p.high | exception Not_found -> 0
