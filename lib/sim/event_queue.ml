(* An indexed binary min-heap: every entry records the slot it occupies, so
   [cancel] takes it out of the middle in O(log n) and the heap holds live
   events only. The entry is its own handle — one block per event. Slots at
   index >= size hold [Vacant], so the array keeps no popped or cancelled
   entry (nor its payload) reachable. *)

type 'a entry =
  | Vacant
  | Entry of { time : Time.t; seq : int; payload : 'a; mutable slot : int }

type 'a handle = 'a entry

let vacant = Vacant

(* [slot] outside the heap: the event fired, or it was cancelled. *)
let fired = -1
let cancelled = -2

type 'a t = { mutable heap : 'a entry array; mutable size : int; mutable next_seq : int }

let create () = { heap = [||]; size = 0; next_seq = 0 }

let before a b =
  match (a, b) with
  | Entry a, Entry b ->
      let ta = (a.time :> int) and tb = (b.time :> int) in
      ta < tb || (ta = tb && a.seq < b.seq)
  | _ -> false

let place heap e i =
  heap.(i) <- e;
  match e with Entry r -> r.slot <- i | Vacant -> ()

(* Hole-moving sifts: [e] is dropped into the slot where the hole stops,
   and every entry moved on the way learns its new slot. *)
let rec sift_up heap e i =
  if i = 0 then place heap e 0
  else
    let parent = (i - 1) / 2 in
    let p = heap.(parent) in
    if before e p then begin
      place heap p i;
      sift_up heap e parent
    end
    else place heap e i

let rec sift_down heap size e i =
  let l = (2 * i) + 1 in
  if l >= size then place heap e i
  else
    let c = if l + 1 < size && before heap.(l + 1) heap.(l) then l + 1 else l in
    let child = heap.(c) in
    if before child e then begin
      place heap child i;
      sift_down heap size e c
    end
    else place heap e i

let add t ~time payload =
  let e = Entry { time; seq = t.next_seq; payload; slot = t.size } in
  t.next_seq <- t.next_seq + 1;
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let heap = Array.make (if cap = 0 then 16 else cap * 2) Vacant in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.size <- t.size + 1;
  sift_up t.heap e (t.size - 1);
  e

(* Fills slot [i] with the last entry and re-seats it: up if it now beats
   its parent, down otherwise. *)
let remove_at t i =
  let last = t.size - 1 in
  let moved = t.heap.(last) in
  t.heap.(last) <- Vacant;
  t.size <- last;
  if i < last then
    if i > 0 && before moved t.heap.((i - 1) / 2) then sift_up t.heap moved i
    else sift_down t.heap last moved i

let cancel t = function
  | Vacant -> ()
  | Entry r as e ->
      if r.slot >= 0 then begin
        if r.slot >= t.size || t.heap.(r.slot) != e then
          invalid_arg "Event_queue.cancel: entry belongs to another queue";
        remove_at t r.slot
      end;
      r.slot <- cancelled

let is_cancelled = function Entry r -> r.slot = cancelled | Vacant -> false

exception Empty

let entry_time = function Entry r -> r.time | Vacant -> raise Empty
let entry_payload = function Entry r -> r.payload | Vacant -> raise Empty

let pop_exn t =
  if t.size = 0 then raise Empty;
  let root = t.heap.(0) in
  remove_at t 0;
  (match root with Entry r -> r.slot <- fired | Vacant -> ());
  root

let pop t =
  match pop_exn t with
  | exception Empty -> None
  | e -> Some (entry_time e, entry_payload e)

let peek_time t = if t.size = 0 then None else Some (entry_time t.heap.(0))
let is_empty t = t.size = 0
let length t = t.size
let scheduled_total t = t.next_seq
