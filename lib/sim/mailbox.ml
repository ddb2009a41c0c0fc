(* Vyukov bounded MPMC ring used MPSC, plus a Treiber-stack overflow so a
   full ring degrades to lock-free-with-allocation instead of blocking or
   dropping. OCaml's memory model makes the publication safe: the plain
   [value] write happens before the [Atomic.set] on the cell sequence, so
   a consumer that observes the new sequence also observes the value. *)

type 'a msg = { rank : int; seq : int; payload : 'a }

type 'a cell = { state : int Atomic.t; mutable value : 'a msg option }

type 'a t = {
  mask : int;
  cells : 'a cell array;
  enqueue_pos : int Atomic.t;
  dequeue_pos : int Atomic.t;
  overflow : 'a msg list Atomic.t;
  (* Consumer side only. [next.(rank)]: the sequence number the sender's
     next drained message must carry. [held]: messages that arrived ahead
     of an earlier one of their sender's, kept for a later drain. *)
  mutable next : int array;
  mutable held : 'a msg list;
}

type 'a sender = { mb : 'a t; rank : int; mutable next_seq : int }

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ?(ring_capacity = 1024) () =
  let cap = pow2 (Stdlib.max 2 ring_capacity) 2 in
  {
    mask = cap - 1;
    cells = Array.init cap (fun i -> { state = Atomic.make i; value = None });
    enqueue_pos = Atomic.make 0;
    dequeue_pos = Atomic.make 0;
    overflow = Atomic.make [];
    next = [||];
    held = [];
  }

let sender t ~rank =
  if rank < 0 then invalid_arg "Mailbox.sender: negative rank";
  { mb = t; rank; next_seq = 0 }

let rec push_overflow t msg =
  let old = Atomic.get t.overflow in
  if not (Atomic.compare_and_set t.overflow old (msg :: old)) then push_overflow t msg

(* [true] on success, [false] when the ring is full right now. *)
let rec try_enqueue t msg =
  let pos = Atomic.get t.enqueue_pos in
  let cell = t.cells.(pos land t.mask) in
  let diff = Atomic.get cell.state - pos in
  if diff = 0 then
    if Atomic.compare_and_set t.enqueue_pos pos (pos + 1) then begin
      cell.value <- Some msg;
      Atomic.set cell.state (pos + 1);
      true
    end
    else try_enqueue t msg
  else if diff < 0 then false
  else try_enqueue t msg

let push sender payload =
  let msg = { rank = sender.rank; seq = sender.next_seq; payload } in
  sender.next_seq <- sender.next_seq + 1;
  if not (try_enqueue sender.mb msg) then push_overflow sender.mb msg

(* Single consumer: no CAS needed on dequeue_pos, but the cell state
   round-trip still synchronises with producers. *)
let try_dequeue t =
  let pos = Atomic.get t.dequeue_pos in
  let cell = t.cells.(pos land t.mask) in
  let diff = Atomic.get cell.state - (pos + 1) in
  if diff = 0 then begin
    Atomic.set t.dequeue_pos (pos + 1);
    let v = cell.value in
    cell.value <- None;
    Atomic.set cell.state (pos + t.mask + 1);
    v
  end
  else None

let next_seq t rank =
  if rank >= Array.length t.next then begin
    let grown = Array.make (rank + 1) 0 in
    Array.blit t.next 0 grown 0 (Array.length t.next);
    t.next <- grown
  end;
  t.next.(rank)

(* The ring stops at the first claimed but unpublished cell, while the
   overflow stack is taken whole, so one sender's later messages can be
   present without an earlier one. Each sender's run is handed out only
   up to its first gap; the rest waits for the drain that fills it. *)
let drain t =
  let acc = ref t.held in
  let rec ring () =
    match try_dequeue t with
    | Some m ->
        acc := m :: !acc;
        ring ()
    | None -> ()
  in
  ring ();
  let overflowed = Atomic.exchange t.overflow [] in
  let all =
    List.sort
      (fun (a : 'a msg) (b : 'a msg) ->
        match Int.compare a.rank b.rank with 0 -> Int.compare a.seq b.seq | c -> c)
      (List.rev_append overflowed !acc)
  in
  let out = ref [] and held = ref [] in
  List.iter
    (fun (m : 'a msg) ->
      if m.seq = next_seq t m.rank then begin
        t.next.(m.rank) <- m.seq + 1;
        out := (m.rank, m.seq, m.payload) :: !out
      end
      else held := m :: !held)
    all;
  t.held <- !held;
  List.rev !out

let is_empty t =
  t.held = []
  && Atomic.get t.enqueue_pos = Atomic.get t.dequeue_pos
  && Atomic.get t.overflow = []

let pushed sender = sender.next_seq
