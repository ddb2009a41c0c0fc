(* Topology-aware assignment of sites to execution domains.

   Cross-shard messages are what the parallel engine pays for (mailbox
   push + barrier-deferred delivery), and almost all traffic is per-item:
   sync broadcasts, AV circulation and 2PC rounds all run over an item's
   subscriber set. So the goal is to co-locate each item's base with as
   many of its subscribers as a balanced split allows. Subscriber sets
   are hash-scattered (not contiguous), so the assignment works from the
   actual sets: a greedy pass places each site on the domain where it
   already has the most co-subscribers, under a hard per-domain cap that
   keeps the shards balanced.

   The result is a pure function of (topology, n_domains) — no RNG, no
   iteration-order dependence — so every run of a seeded configuration
   shards identically. Live joins append to it ([add_site]). *)

type t = {
  n_domains : int;
  (* Geometric-growth owner table: the first [n_sites] slots are live, so
     a join appends in amortised O(1). *)
  mutable domain_of : int array;
  mutable n_sites : int;
  cross_items : int;
}

let n_domains t = t.n_domains
let n_sites t = t.n_sites

let domain_of t site =
  if site < 0 || site >= t.n_sites then invalid_arg "Placement.domain_of: site out of range";
  t.domain_of.(site)

let sites_of t domain =
  if domain < 0 || domain >= t.n_domains then
    invalid_arg "Placement.sites_of: domain out of range";
  let owned = ref [] in
  for s = t.n_sites - 1 downto 0 do
    if t.domain_of.(s) = domain then owned := s :: !owned
  done;
  Array.of_list !owned

let cross_items t = t.cross_items

let add_site t ~domain =
  if domain < 0 || domain >= t.n_domains then
    invalid_arg "Placement.add_site: domain out of range";
  if t.n_sites = Array.length t.domain_of then begin
    let grown = Array.make (Stdlib.max 8 (2 * t.n_sites)) 0 in
    Array.blit t.domain_of 0 grown 0 t.n_sites;
    t.domain_of <- grown
  end;
  t.domain_of.(t.n_sites) <- domain;
  t.n_sites <- t.n_sites + 1;
  t.n_sites - 1

(* The greedy pass proper; one domain owns everything without it. *)
let assign topology ~n_domains ~items ~n_sites =
  (* Per-item subscriber arrays by catalogue position; the reverse index,
     which items each site subscribes to, is the topology's interest set.
     The greedy pass below only walks these. *)
  let subs = Array.of_list (List.map (fun item ->
      Array.of_list (Topology.subscribers topology ~item)) items)
  in
  let domain_of = Array.make n_sites (-1) in
  let load = Array.make n_domains 0 in
  (* Hard cap so no domain ends up with more than its balanced share
     (remainder spread over the lowest-numbered domains). *)
  let cap = Array.init n_domains (fun d ->
      (n_sites / n_domains) + if d < n_sites mod n_domains then 1 else 0)
  in
  let affinity = Array.make n_domains 0 in
  for s = 0 to n_sites - 1 do
    Array.fill affinity 0 n_domains 0;
    Array.iter
      (fun ix ->
        Array.iter
          (fun peer ->
            let d = domain_of.(peer) in
            if d >= 0 then affinity.(d) <- affinity.(d) + 1)
          subs.(ix))
      (Topology.interest topology ~site:s);
    (* Best open domain: most co-subscribers, then least loaded, then
       lowest index — every tie-break deterministic. *)
    let best = ref (-1) in
    for d = 0 to n_domains - 1 do
      if load.(d) < cap.(d) then
        let better =
          !best < 0
          || affinity.(d) > affinity.(!best)
          || (affinity.(d) = affinity.(!best) && load.(d) < load.(!best))
        in
        if better then best := d
    done;
    domain_of.(s) <- !best;
    load.(!best) <- load.(!best) + 1
  done;
  let cross_items =
    Array.fold_left
      (fun acc ss ->
        match Array.length ss with
        | 0 | 1 -> acc
        | _ ->
            let d0 = domain_of.(ss.(0)) in
            if Array.exists (fun s -> domain_of.(s) <> d0) ss then acc + 1 else acc)
      0 subs
  in
  (domain_of, cross_items)

let create topology ~n_domains ~items =
  let n_sites = Topology.n_sites topology in
  if n_domains < 1 then invalid_arg "Placement.create: n_domains must be >= 1";
  let n_domains = Stdlib.min n_domains n_sites in
  let domain_of, cross_items =
    if n_domains = 1 then (Array.make n_sites 0, 0)
    else assign topology ~n_domains ~items ~n_sites
  in
  { n_domains; domain_of; n_sites; cross_items }

let pp ppf t =
  Format.fprintf ppf "@[<v>%d domains over %d sites (%d cross-domain items)" t.n_domains
    t.n_sites t.cross_items;
  for d = 0 to t.n_domains - 1 do
    Format.fprintf ppf "@,  domain %d: %d sites" d (Array.length (sites_of t d))
  done;
  Format.fprintf ppf "@]"
