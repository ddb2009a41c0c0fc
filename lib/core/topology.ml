(* Topology: who coordinates an item, who replicates it, and how AV
   requests climb toward the item's base. One resolved instance is shared
   by every site of a cluster (like [Site.shared]); per-site state stays
   bounded by the site's interest set, while this single shared structure
   holds the item -> base / subscriber maps and their reverse, the site ->
   interest index (O(items × spread), one copy).

   Determinism: everything derives from [Hashtbl.hash] of the item name
   mixed with an LCG walk, so two clusters built from the same spec agree
   without any coordination. *)

type base_assignment = Fixed_base of int | Hashed_base

type replication =
  | Full
  | Scattered of int
  | Explicit of (string * int list) list

type spec = {
  base_assignment : base_assignment;
  replication : replication;
  hierarchy_fanout : int option;
}

let flat = { base_assignment = Fixed_base 0; replication = Full; hierarchy_fanout = None }

let sharded ?(spread = 3) ?hierarchy_fanout () =
  { base_assignment = Hashed_base; replication = Scattered spread; hierarchy_fanout }

let validate_spec spec ~n_sites =
  (match spec.base_assignment with
  | Fixed_base b when b < 0 || b >= n_sites -> Error "topology: fixed base out of range"
  | Fixed_base _ | Hashed_base -> Ok ())
  |> fun r ->
  match r with
  | Error _ as e -> e
  | Ok () -> (
      match spec.replication with
      | Scattered k when k < 1 -> Error "topology: spread must be >= 1"
      | Explicit subs
        when List.exists (fun (_, sites) -> sites = [] || List.exists (fun s -> s < 0) sites) subs
        ->
          Error "topology: explicit subscriber lists must be non-empty and non-negative"
      | Full | Scattered _ | Explicit _ -> (
          match spec.hierarchy_fanout with
          | Some f when f < 1 -> Error "topology: hierarchy fanout must be >= 1"
          | Some _ | None -> Ok ()))

type t = {
  spec : spec;
  mutable n_sites : int;
  mutable version : int;  (* bumped by [register_joiner]; caches key on it *)
  full : bool;
  bases : (string, int) Hashtbl.t;  (* empty under [Fixed_base] *)
  subs : (string, int array) Hashtbl.t;  (* item -> sorted subscribers; empty under [Full] *)
  fixed_base : int;
  (* Interest sets as ascending catalogue positions. Under [Full] every
     site shares [all]; otherwise [interest.(s)] is site [s]'s own array
     (geometric growth, so a join appends in amortised O(1)) and
     [positions] maps a catalogue item to its position for joiners. *)
  all : int array;
  positions : (string, int) Hashtbl.t;
  mutable interest : int array array;
}

let item_hash item = Hashtbl.hash item land max_int

(* LCG step (multiplier from Steele & Vigna's table of good 62-bit LCG
   constants territory — any odd multiplier with high-quality low bits
   works here; this only needs to decorrelate hash walks, not pass
   statistical batteries). [land max_int] keeps the walk non-negative on
   63-bit ints. *)
let lcg x = ((x * 0x2545F4914F6CDD1D) + 0x9E3779B97F4A7C1) land max_int

(* [k] distinct site indices including [base], ascending, chosen by a
   deterministic walk seeded from the item hash. [chosen] is one byte per
   site, all zero, shared by every item of a [create]; the walk clears the
   bytes it set, so each item costs O(k), not O(n). *)
let scatter ~chosen ~k ~base ~h =
  let n = Bytes.length chosen in
  let k = Stdlib.min k n in
  let out = Array.make k base in
  Bytes.set chosen base '\001';
  let picked = ref 1 in
  let x = ref (lcg (h + base)) in
  while !picked < k do
    x := lcg !x;
    let i = !x mod n in
    if Bytes.get chosen i = '\000' then begin
      Bytes.set chosen i '\001';
      out.(!picked) <- i;
      incr picked
    end
  done;
  Array.iter (fun i -> Bytes.set chosen i '\000') out;
  Array.sort compare out;
  out

(* Every site's interest set from the catalogue's subscriber arrays:
   count, then fill in catalogue order, so each site's positions come out
   ascending. O(sites + items × spread). *)
let interest_of_subs ~n_sites subs_at =
  let count = Array.make n_sites 0 in
  Array.iter (Array.iter (fun s -> count.(s) <- count.(s) + 1)) subs_at;
  let interest = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 n_sites 0;
  Array.iteri
    (fun p subs ->
      Array.iter
        (fun s ->
          interest.(s).(count.(s)) <- p;
          count.(s) <- count.(s) + 1)
        subs)
    subs_at;
  interest

let create spec ~n_sites ~items =
  (match validate_spec spec ~n_sites with
  | Ok () -> ()
  | Error e -> invalid_arg ("Topology.create: " ^ e));
  let fixed_base = match spec.base_assignment with Fixed_base b -> b | Hashed_base -> 0 in
  let items = Array.of_list items in
  let bases = Hashtbl.create 64 in
  let base_of item =
    match spec.base_assignment with
    | Fixed_base b -> b
    | Hashed_base -> item_hash item mod n_sites
  in
  (match spec.base_assignment with
  | Fixed_base _ -> ()
  | Hashed_base -> Array.iter (fun item -> Hashtbl.replace bases item (base_of item)) items);
  let subs = Hashtbl.create 64 in
  (match spec.replication with
  | Full -> ()
  | Scattered k ->
      let chosen = Bytes.make n_sites '\000' in
      Array.iter
        (fun item ->
          Hashtbl.replace subs item
            (scatter ~chosen ~k ~base:(base_of item) ~h:(item_hash item)))
        items
  | Explicit lists ->
      List.iter
        (fun (item, sites) ->
          let sites = List.sort_uniq compare (base_of item :: sites) in
          if List.exists (fun s -> s >= n_sites) sites then
            invalid_arg "Topology.create: explicit subscriber out of range";
          Hashtbl.replace subs item (Array.of_list sites))
        lists;
      (* items not listed default to base-only replication *)
      Array.iter
        (fun item ->
          if not (Hashtbl.mem subs item) then Hashtbl.replace subs item [| base_of item |])
        items);
  let full = match spec.replication with Full -> true | Scattered _ | Explicit _ -> false in
  let positions = Hashtbl.create (if full then 1 else Array.length items) in
  if not full then Array.iteri (fun p item -> Hashtbl.replace positions item p) items;
  {
    spec;
    n_sites;
    version = 0;
    full;
    bases;
    subs;
    fixed_base;
    all = (if full then Array.init (Array.length items) Fun.id else [||]);
    positions;
    interest =
      (if full then [||]
       else interest_of_subs ~n_sites (Array.map (Hashtbl.find subs) items));
  }

let spec t = t.spec
let n_sites t = t.n_sites
let version t = t.version
let is_full t = t.full

let base_index t ~item =
  match t.spec.base_assignment with
  | Fixed_base b -> b
  | Hashed_base -> (
      match Hashtbl.find_opt t.bases item with
      | Some b -> b
      | None -> item_hash item mod t.n_sites)

let subscriber_array t ~item =
  if t.full then Array.init t.n_sites Fun.id
  else
    match Hashtbl.find t.subs item with
    | a -> a
    | exception Not_found -> [| base_index t ~item |]

(* Spread-sized arrays: a linear scan beats any cleverness. *)
let rec holds a ~site i = i < Array.length a && (a.(i) = site || holds a ~site (i + 1))
let subscribes a ~site = holds a ~site 0

let interested t ~site ~item =
  if t.full then site < t.n_sites else subscribes (subscriber_array t ~item) ~site

let subscribers t ~item =
  if t.full then List.init t.n_sites (fun i -> i)
  else Array.to_list (subscriber_array t ~item)

let subscriber_count t ~item =
  if t.full then t.n_sites else Array.length (subscriber_array t ~item)

let iter_subscribers t ~item f =
  if t.full then
    for i = 0 to t.n_sites - 1 do
      f i
    done
  else Array.iter f (subscriber_array t ~item)

let interest t ~site =
  if t.full then if site >= 0 && site < t.n_sites then t.all else [||]
  else if site >= 0 && site < Array.length t.interest then t.interest.(site)
  else [||]

(* Position of [site] in the item's subscriber set with the base rotated
   to slot 0 — the rank AV allocation splits by and the hierarchy builds
   its tree over. *)
let rank t ~site ~item =
  let base = base_index t ~item in
  if site = base then Some 0
  else if t.full then if site < t.n_sites then Some (if site < base then site + 1 else site) else None
  else
    let a = subscriber_array t ~item in
    let n = Array.length a in
    let rec scan i r =
      if i >= n then None
      else if a.(i) = site then Some r
      else scan (i + 1) (if a.(i) = base then r else r + 1)
    in
    (* non-base subscribers take ranks 1.. in array (address) order *)
    scan 0 1

(* The site one hop closer to the item's base in the f-ary tree laid over
   the item's subscriber ranks. [None] at the base itself, for
   non-subscribers, or when no hierarchy is configured. *)
let av_parent t ~site ~item =
  match t.spec.hierarchy_fanout with
  | None -> None
  | Some f -> (
      match rank t ~site ~item with
      | None | Some 0 -> None
      | Some r ->
          let parent_rank = (r - 1) / f in
          let base = base_index t ~item in
          if parent_rank = 0 then Some base
          else if t.full then
            (* invert [rank]: rank r > 0 is address r-1 shifted around base *)
            Some (if parent_rank <= base then parent_rank - 1 else parent_rank)
          else
            let a = subscriber_array t ~item in
            let n = Array.length a in
            let rec find i r = if i >= n then None else if a.(i) = base then find (i + 1) r else if r = parent_rank then Some a.(i) else find (i + 1) (r + 1) in
            find 0 1)

(* A joining site declares its interest set: record it so senders and
   invariant checks route to it. O(|interest|) per join — the membership
   event itself never fans out over all sites or all items. *)
let register_joiner t ~site ~items =
  if site >= t.n_sites then t.n_sites <- site + 1;
  t.version <- t.version + 1;
  if not t.full then begin
    List.iter
      (fun item ->
        let prev = Array.to_list (subscriber_array t ~item) in
        if not (List.mem site prev) then
          Hashtbl.replace t.subs item (Array.of_list (List.sort compare (site :: prev))))
      items;
    if site >= Array.length t.interest then begin
      let grown = Array.make (Stdlib.max 8 (2 * (site + 1))) [||] in
      Array.blit t.interest 0 grown 0 (Array.length t.interest);
      t.interest <- grown
    end;
    t.interest.(site) <-
      Array.of_list
        (List.sort_uniq compare
           (Array.to_list t.interest.(site)
           @ List.filter_map (Hashtbl.find_opt t.positions) items))
  end

(* Deterministic interest set for a joiner under scattered replication:
   roughly [spread × items / n_sites] items, hash-chosen, so churned-in
   sites look like initially-created ones. *)
let default_joiner_interest t ~site ~items =
  match t.spec.replication with
  | Full -> items
  | Explicit _ -> []
  | Scattered k ->
      let n = Stdlib.max 1 t.n_sites in
      List.filter (fun item -> lcg (item_hash item + site) mod n < k) items

let pp ppf t =
  Format.fprintf ppf "base=%s replication=%s hierarchy=%s"
    (match t.spec.base_assignment with
    | Fixed_base b -> Printf.sprintf "fixed:%d" b
    | Hashed_base -> "hashed")
    (match t.spec.replication with
    | Full -> "full"
    | Scattered k -> Printf.sprintf "scattered:%d" k
    | Explicit l -> Printf.sprintf "explicit:%d" (List.length l))
    (match t.spec.hierarchy_fanout with None -> "none" | Some f -> string_of_int f)
