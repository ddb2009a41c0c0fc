(* Delay_sync against a reference that keeps every counter in a plain
   table: whatever order the ring is in, each peer's payload must be
   every counter stamped after the peer's acknowledgement on an item the
   peer replicates, name-sorted, and an unforced flush notifies a peer
   only when that payload holds a counter stamped after the highest one
   already sent to it. A notice's [av_info] must be the AV table read by
   name, and its ack the receiver side's high-water mark for its target,
   whatever joins and level changes the counters have seen. The sender's
   counters, and the receiver's stamps, are kept per item apart from the
   [Delay_sync.t], as a site's records keep them; the state the [t]
   reaches through its ring ([own_state], [count]) and the stamps and
   per-origin high-water marks are checked against plain maps. *)

open Avdb_core
module Address = Avdb_net.Address
module Av_table = Avdb_av.Av_table

let items = Array.init 8 (fun i -> Printf.sprintf "item%d" i)
let n_sites = 5
let self = 0

type op =
  | Delta of int * int  (** item index, delta *)
  | Ack_vector of int * int  (** peer, how far below [seq] the ack sits *)
  | Grant_reply of int  (** peer: piggyback, then the reply acknowledges it *)
  | Flush of bool * int option  (** force, fanout *)
  | Join of int list  (** a new site subscribing to these item indices *)
  | Receive of int * (int * int * int) list * bool
      (** origin, (item index, version, cum), committed *)
  | Seed of int * int * int * int  (** origin, item index, version, cum *)
  | Av of int * int
      (** item index, amount: a deposit when positive, otherwise a
          withdrawal when the available AV covers it *)

let pp_op = function
  | Delta (i, d) -> Printf.sprintf "delta(%d,%d)" i d
  | Ack_vector (p, k) -> Printf.sprintf "ack(%d,-%d)" p k
  | Grant_reply p -> Printf.sprintf "grant(%d)" p
  | Flush (force, fanout) ->
      Printf.sprintf "flush(%b,%s)" force
        (match fanout with Some k -> string_of_int k | None -> "-")
  | Join is -> Printf.sprintf "join[%s]" (String.concat "," (List.map string_of_int is))
  | Receive (o, cs, ok) ->
      Printf.sprintf "recv(%d,[%s],%b)" o
        (String.concat ";"
           (List.map (fun (i, v, c) -> Printf.sprintf "%d@%d=%d" i v c) cs))
        ok
  | Seed (o, i, v, c) -> Printf.sprintf "seed(%d,%d@%d=%d)" o i v c
  | Av (i, a) -> Printf.sprintf "av(%d,%d)" i a

let op_gen =
  let open QCheck.Gen in
  let item = int_bound (Array.length items - 1) in
  let origin = int_range 1 (n_sites - 1) in
  let counters =
    map
      (fun l -> List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b) l)
      (list_size (int_range 1 4) (triple item (int_range 1 40) (int_range (-50) 50)))
  in
  frequency
    [
      (8, map2 (fun i d -> Delta (i, d)) item (int_range (-9) 9));
      (2, map2 (fun p k -> Ack_vector (p, k)) (int_range 1 (n_sites - 1)) (int_bound 6));
      (2, map (fun p -> Grant_reply p) (int_range 1 (n_sites - 1)));
      (3, map2 (fun f k -> Flush (f, k)) bool (opt (int_range 1 3)));
      (1, map (fun l -> Join l) (list_size (int_range 1 3) item));
      (3, map3 (fun o cs ok -> Receive (o, cs, ok)) origin counters bool);
      (1, map (fun (o, i, (v, c)) -> Seed (o, i, v, c))
           (triple origin item (pair (int_range 1 40) (int_range (-50) 50))));
      (2, map2 (fun i a -> Av (i, a)) item (int_range (-3) 3));
    ]

let fail fmt = Printf.ksprintf failwith fmt

let show_counters cs =
  String.concat ";" (List.map (fun (i, v, c) -> Printf.sprintf "%s@%d=%d" i v c) cs)

(* Runs one script, raising [Failure] at the first disagreement. *)
let run ~full ops =
  let topology =
    Topology.create
      (if full then Topology.flat else Topology.sharded ~spread:2 ())
      ~n_sites ~items:(Array.to_list items)
  in
  let s = Delay_sync.create () in
  let keep peer item = Topology.interested topology ~site:(Address.to_int peer) ~item in
  (* AV on every other item to begin with *)
  let av = Av_table.create () in
  Array.iteri (fun i item -> if i mod 2 = 0 then Av_table.define av ~item ~volume:10) items;
  let by_name cs =
    List.filter_map
      (fun (item, _, _) ->
        if List.mem item (Av_table.items av) then Some (item, Av_table.available av ~item)
        else None)
      cs
  in
  (* each item's counter, made at its first change with its AV entry *)
  let ctrs = Array.map (fun _ -> Delay_sync.no_counter) items in
  (* reference sender *)
  let counters = Hashtbl.create 8 and seq = ref 0 and flushed = ref 0 in
  let acks = Hashtbl.create 8 in
  let ack p = Option.value ~default:0 (Hashtbl.find_opt acks p) in
  let raise_ack p upto = if upto > ack p then Hashtbl.replace acks p upto in
  (* peer -> highest version a flush sent it *)
  let marks = Hashtbl.create 8 in
  let mark p = Option.value ~default:0 (Hashtbl.find_opt marks p) in
  let reference ~upto peer =
    Hashtbl.fold
      (fun item (v, c) acc -> if v > upto && keep peer item then (item, v, c) :: acc else acc)
      counters []
    |> List.sort compare
  in
  (* each item's stamps, as a site's records keep them, and the reference
     receiver *)
  let stamps = Array.map (fun _ -> Delay_sync.no_stamps) items in
  let ref_stamps = Hashtbl.create 8 in
  let high = Hashtbl.create 8 in
  let note_stamp o item v c =
    Hashtbl.replace ref_stamps (o, item) (v, c);
    if v > Option.value ~default:0 (Hashtbl.find_opt high o) then Hashtbl.replace high o v
  in
  let n_joined = ref n_sites in
  let step op =
    match op with
    | Delta (i, d) ->
        let item = items.(i) in
        if ctrs.(i) == Delay_sync.no_counter then
          ctrs.(i) <- Delay_sync.make_counter ~item ~av:(Av_table.entry_or_no_entry av ~item);
        Delay_sync.queue s ctrs.(i) ~delta:d;
        incr seq;
        let c = match Hashtbl.find_opt counters item with Some (_, c) -> c | None -> 0 in
        Hashtbl.replace counters item (!seq, c + d)
    | Ack_vector (p, k) ->
        let upto = Int.max 0 (!seq - k) in
        Delay_sync.note_conveyed (Delay_sync.peer s ~site:p) ~upto;
        raise_ack p upto
    | Grant_reply p ->
        let peer = Address.of_int p in
        let got = Delay_sync.payload s topology peer in
        let want = reference ~upto:(ack p) peer in
        if got <> want then
          fail "piggyback to %d: got [%s], want [%s]" p (show_counters got) (show_counters want);
        Delay_sync.note_conveyed (Delay_sync.peer s ~site:p) ~upto:(Delay_sync.seq s);
        raise_ack p !seq
    | Flush (force, fanout) ->
        let unflushed =
          Hashtbl.fold
            (fun item (v, c) acc -> if v > !flushed then (item, c) :: acc else acc)
            counters []
          |> List.sort compare
        in
        if Delay_sync.unflushed s <> unflushed then fail "unflushed differs";
        let entries = Delay_sync.audience s topology ~self in
        let audience = List.map Delay_sync.peer_address entries in
        let want_audience =
          (if full then List.init !n_joined Fun.id
           else
             Hashtbl.fold
               (fun item _ acc -> Topology.subscribers topology ~item @ acc)
               counters [])
          |> List.filter (fun i -> i <> self)
          |> List.sort_uniq compare |> List.map Address.of_int
        in
        if audience <> want_audience then fail "audience differs";
        let chosen = Delay_sync.start_flush s ~force ~fanout entries in
        let targets = List.map Delay_sync.peer_address chosen in
        flushed := !seq;
        (match fanout with
        | Some k when (not force) && k < List.length audience ->
            if List.length targets <> k || not (List.for_all (fun p -> List.mem p audience) targets)
            then fail "rotation picked %d of %d peers" (List.length targets) k
        | Some _ | None -> if targets <> audience then fail "unrotated flush skipped peers");
        let sent = ref [] in
        let any =
          Delay_sync.payloads s ~force topology chosen () (fun () p cs av_info ->
              let peer = Delay_sync.peer_address p in
              if av_info <> by_name cs then fail "av_info to %d differs" (Address.to_int peer);
              if Delay_sync.peer_high p <> Delay_sync.applied_high s ~origin:(Address.to_int peer)
              then fail "ack to %d differs" (Address.to_int peer);
              sent := (peer, cs) :: !sent)
        in
        if any <> (!sent <> []) then fail "payloads misreports what it sent";
        let want =
          List.filter_map
            (fun peer ->
              let p = Address.to_int peer in
              let upto = if force then 0 else ack p in
              match reference ~upto peer with
              | [] -> None
              | cs ->
                  if force || List.exists (fun (_, v, _) -> v > mark p) cs then Some (peer, cs)
                  else None)
            targets
        in
        if List.rev !sent <> want then fail "flush payloads differ";
        List.iter
          (fun (peer, cs) ->
            let p = Address.to_int peer in
            Hashtbl.replace marks p (List.fold_left (fun m (_, v, _) -> Int.max m v) (mark p) cs))
          want
    | Join is ->
        let site = !n_joined in
        incr n_joined;
        Topology.register_joiner topology ~site ~items:(List.map (fun i -> items.(i)) is)
    | Receive (o, cs, committed) ->
        (* The receiver's pass: each counter's stamp found once, read for
           freshness and the delta, and restamped after the commit. *)
        let found =
          List.map (fun (i, v, c) -> (i, Delay_sync.stamp stamps.(i) ~origin:o, v, c)) cs
        in
        let fresh = List.filter (fun (_, st, v, _) -> v > Delay_sync.stamp_version st) found in
        let got =
          List.map (fun (i, st, v, c) -> (items.(i), c - Delay_sync.stamp_cum st, v, c)) fresh
        in
        let want =
          List.filter_map
            (fun (i, v, c) ->
              let item = items.(i) in
              match Hashtbl.find_opt ref_stamps (o, item) with
              | Some (v', _) when v <= v' -> None
              | Some (_, c') -> Some (item, c - c', v, c)
              | None -> Some (item, c, v, c))
            cs
        in
        if got <> want then fail "fresh from %d differs" o;
        if committed then begin
          List.iter
            (fun (i, st, v, c) ->
              stamps.(i) <- Delay_sync.restamp stamps.(i) st ~origin:o ~version:v ~cum:c)
            fresh;
          Delay_sync.raise_high (Delay_sync.peer s ~site:o)
            (List.fold_left (fun m (_, v, _) -> Int.max m v) 0 cs);
          List.iter (fun (item, _, v, c) -> note_stamp o item v c) want
        end
    | Seed (o, i, v, c) ->
        stamps.(i) <-
          Delay_sync.restamp stamps.(i) (Delay_sync.stamp stamps.(i) ~origin:o) ~origin:o ~version:v
            ~cum:c;
        Delay_sync.raise_high (Delay_sync.peer s ~site:o) v;
        note_stamp o items.(i) v c
    | Av (i, a) ->
        (* an item without AV refuses both *)
        let e = Av_table.entry_or_no_entry av ~item:items.(i) in
        ignore
          (if a > 0 then Av_table.entry_deposit e a
           else if Av_table.entry_available e >= -a then Av_table.entry_withdraw e (-a)
           else Ok ())
  in
  (* Only reads that leave the ring alone, so that several changes can
     pile up between payload builds: a counter changed again after one
     sits both in the ring and on the dirty list, and [own_state] must
     still give it once. *)
  let check_state () =
    if Delay_sync.seq s <> !seq || Delay_sync.count s <> Hashtbl.length counters then
      fail "seq or count differs";
    if !seq > !flushed && not (Delay_sync.owes_flush s) then fail "owes no flush";
    let own = List.sort compare (Delay_sync.own_state s ~want:(fun _ -> true)) in
    let want_own =
      Hashtbl.fold (fun item (v, c) acc -> (item, v, c) :: acc) counters [] |> List.sort compare
    in
    if own <> want_own then
      fail "own state [%s], want [%s]" (show_counters own) (show_counters want_own);
    Array.iteri
      (fun i item ->
        let v, c = Option.value ~default:(0, 0) (Hashtbl.find_opt counters item) in
        if Delay_sync.version ctrs.(i) <> v || Delay_sync.cum ctrs.(i) <> c then
          fail "counter %s differs" item;
        let total =
          Hashtbl.fold (fun (_, i) (_, c) acc -> if i = item then acc + c else acc) ref_stamps 0
        in
        if Delay_sync.applied_total stamps.(i) <> total then fail "applied total %s differs" item;
        for o = 1 to n_sites - 1 do
          let v = match Hashtbl.find_opt ref_stamps (o, item) with Some (v, _) -> v | None -> 0 in
          if Delay_sync.applied_version stamps.(i) ~origin:o <> v then
            fail "stamp (%d, %s) differs" o item
        done)
      items;
    let state =
      Hashtbl.fold (fun (o, item) (v, c) acc -> (o, item, v, c) :: acc) ref_stamps []
      |> List.sort compare
    in
    let got =
      Array.to_list items
      |> List.mapi (fun i item ->
             List.rev
               (Delay_sync.fold_stamps stamps.(i) ~init:[] ~f:(fun acc o v c ->
                    (o, item, v, c) :: acc)))
    in
    if not (List.for_all (fun l -> List.sort compare l = l) got) then
      fail "stamps not folded by origin";
    if List.sort compare (List.concat got) <> state then fail "applied state differs";
    for o = 1 to n_sites - 1 do
      let want = Option.value ~default:0 (Hashtbl.find_opt high o) in
      if Delay_sync.applied_high s ~origin:o <> want then fail "applied high of %d differs" o
    done
  in
  List.iter
    (fun op ->
      step op;
      check_state ())
    ops;
  true

let script = QCheck.make
    ~print:(fun ops -> String.concat " " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 0 80) op_gen)

let payloads_match_reference =
  QCheck.Test.make ~name:"payloads and stamps match the reference" ~count:300 script
    (run ~full:false)

(* The same under full replication, where a counter takes no subscriber
   memo and the audience is every member. *)
let full_payloads_match_reference =
  QCheck.Test.make ~name:"full replication matches the reference" ~count:200 script
    (run ~full:true)

(* A counter changed again after a payload build must move to the ring's
   newest end: a peer acknowledged up to the build sees only it. Until
   the next build it is both in the ring and on the dirty list, and the
   sender's own state still holds it once. *)
let restamp_after_build () =
  let s = Delay_sync.create () in
  let peer = Address.of_int 1 in
  let flat = Topology.create Topology.flat ~n_sites:2 ~items:[ "a"; "b"; "c" ] in
  let counter item = Delay_sync.make_counter ~item ~av:Av_table.no_entry in
  let a = counter "a" and b = counter "b" and c = counter "c" in
  List.iter (fun c -> Delay_sync.queue s c ~delta:1) [ a; b; c ];
  Alcotest.(check int) "three counters" 3 (List.length (Delay_sync.payload s flat peer));
  Delay_sync.note_conveyed (Delay_sync.peer s ~site:1) ~upto:(Delay_sync.seq s);
  Delay_sync.queue s a ~delta:5;
  Delay_sync.queue s c ~delta:1;
  Delay_sync.queue s a ~delta:1;
  Alcotest.(check (list (triple string int int)))
    "each counter once"
    [ ("a", 6, 7); ("b", 2, 1); ("c", 5, 2) ]
    (List.sort compare (Delay_sync.own_state s ~want:(fun _ -> true)));
  Alcotest.(check int) "still three" 3 (Delay_sync.count s);
  Alcotest.(check (list (triple string int int)))
    "restamped counters only, by name"
    [ ("a", 6, 7); ("c", 5, 2) ]
    (Delay_sync.payload s flat peer)

(* A flush with news builds its target list, one name-sorted slice of the
   counters and each payload with its [av_info], and nothing per counter
   beyond the slice's own cells: it reads each counter's subscriber array
   and AV entry from the counter instead of building a subscriber array
   per flush. Site 0 holds counters on a, b and c; site 1 replicates
   only b, site 2 only a and c. After a warm-up flush, a change on b is
   news for site 1 alone, whose ack (0) puts all three counters in the
   slice. *)
let flush_allocates_its_payloads_only () =
  let topology =
    Topology.create
      {
        Topology.flat with
        Topology.replication = Topology.Explicit [ ("a", [ 2 ]); ("b", [ 1 ]); ("c", [ 2 ]) ];
      }
      ~n_sites:3 ~items:[ "a"; "b"; "c" ]
  in
  let av = Av_table.create () in
  List.iter (fun item -> Av_table.define av ~item ~volume:10) [ "a"; "b"; "c" ];
  let s = Delay_sync.create () in
  let counters =
    List.map
      (fun item -> Delay_sync.make_counter ~item ~av:(Av_table.entry_or_no_entry av ~item))
      [ "a"; "b"; "c" ]
  in
  List.iter (fun c -> Delay_sync.queue s c ~delta:1) counters;
  let targets = Delay_sync.audience s topology ~self:0 in
  (* records the last notice without allocating *)
  let notices = ref 0 and last = ref (-1) and levels = ref [] in
  let send () p counters av_info =
    incr notices;
    last := Address.to_int (Delay_sync.peer_address p);
    levels := av_info;
    ignore counters
  in
  ignore (Delay_sync.payloads s ~force:false topology targets () send);
  Alcotest.(check int) "the warm-up notifies both" 2 !notices;
  Delay_sync.queue s (List.nth counters 1) ~delta:1;
  (* settles b's change, so the flush below moves no counter *)
  ignore (Delay_sync.unflushed s);
  let words =
    Gen.allocated (fun () ->
        ignore (Delay_sync.payloads s ~force:false topology targets () send))
    /. 8.
  in
  Alcotest.(check int) "one more notice" 3 !notices;
  Alcotest.(check int) "to site 1" 1 !last;
  Alcotest.(check (list (pair string int))) "b's level" [ ("b", 10) ] !levels;
  (* the target list's cell, the slice's three cells in stamp order (a,
     c, b), the insertion sort's five cells putting them in name order
     (a short list builds no closures: one cell for a, two to put c
     after it, two to put b between them), b's wire entry (a 3-tuple and
     a cell) and its level (a pair and a cell) *)
  Alcotest.(check (float 0.)) "words allocated" (3. +. 9. +. 15. +. 7. +. 6.) words

let suites =
  [
    ( "delay_sync",
      [
        Alcotest.test_case "restamp after build" `Quick restamp_after_build;
        Gen.to_alcotest payloads_match_reference;
        Gen.to_alcotest full_payloads_match_reference;
        Alcotest.test_case "a flush allocates its payloads only" `Quick
          flush_allocates_its_payloads_only;
      ] );
  ]
