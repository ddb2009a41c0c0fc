type site = {
  mutable sent : int;
  mutable received : int;
  mutable bytes_sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable retries : int;
  mutable correspondences : int;
}

(* Indexed by [Address.to_int]; [None] for a site never counted, so
   [sites] lists exactly the sites seen, as a table keyed by address
   would. *)
type t = { mutable per_site : site option array }

let create () = { per_site = [||] }

let fresh () =
  {
    sent = 0;
    received = 0;
    bytes_sent = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    retries = 0;
    correspondences = 0;
  }

let site t addr =
  let i = Address.to_int addr in
  if i >= Array.length t.per_site then begin
    let grown = Array.make (Stdlib.max (i + 1) (2 * Array.length t.per_site)) None in
    Array.blit t.per_site 0 grown 0 (Array.length t.per_site);
    t.per_site <- grown
  end;
  match t.per_site.(i) with
  | Some s -> s
  | None ->
      let s = fresh () in
      t.per_site.(i) <- Some s;
      s

let on_sent t addr ~bytes =
  let s = site t addr in
  s.sent <- s.sent + 1;
  s.bytes_sent <- s.bytes_sent + bytes

let on_received t addr =
  let s = site t addr in
  s.received <- s.received + 1

let on_dropped t addr =
  let s = site t addr in
  s.dropped <- s.dropped + 1

let on_duplicated t addr =
  let s = site t addr in
  s.duplicated <- s.duplicated + 1

let on_reordered t addr =
  let s = site t addr in
  s.reordered <- s.reordered + 1

let add_retry t addr =
  let s = site t addr in
  s.retries <- s.retries + 1

let add_correspondence t addr =
  let s = site t addr in
  s.correspondences <- s.correspondences + 1

let fold f t init =
  Array.fold_left (fun acc -> function Some s -> f acc s | None -> acc) init t.per_site

let total_sent t = fold (fun acc s -> acc + s.sent) t 0
let total_received t = fold (fun acc s -> acc + s.received) t 0
let total_bytes_sent t = fold (fun acc s -> acc + s.bytes_sent) t 0
let total_dropped t = fold (fun acc s -> acc + s.dropped) t 0
let total_correspondences t = fold (fun acc s -> acc + s.correspondences) t 0
let total_duplicated t = fold (fun acc s -> acc + s.duplicated) t 0
let total_reordered t = fold (fun acc s -> acc + s.reordered) t 0
let total_retries t = fold (fun acc s -> acc + s.retries) t 0
let message_pair_correspondences t = float_of_int (total_sent t) /. 2.

let sites t =
  let acc = ref [] in
  for i = Array.length t.per_site - 1 downto 0 do
    Option.iter (fun s -> acc := (Address.of_int i, s) :: !acc) t.per_site.(i)
  done;
  !acc

let reset t = t.per_site <- [||]

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (addr, s) ->
      Format.fprintf ppf "%a: sent=%d recv=%d bytes=%d dropped=%d corr=%d@ " Address.pp addr
        s.sent s.received s.bytes_sent s.dropped s.correspondences)
    (sites t);
  Format.fprintf ppf "total: sent=%d recv=%d dropped=%d corr=%d@]" (total_sent t)
    (total_received t) (total_dropped t) (total_correspondences t)
