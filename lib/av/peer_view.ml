open Avdb_sim
open Avdb_net

type observation = { site : Address.t; mutable volume : int; mutable at : Time.t }

(* Per item, the observations keyed by site. Every sync notice and AV reply
   observes, so in the steady state an observation is updated in place:
   one item lookup, one int-keyed site lookup, no allocation. An item's
   table, once made, is never removed, so a caller may keep it as the
   item's [entry]. *)
type entry = observation Int_table.t
type t = { by_item : (string, entry) Hashtbl.t }

let create () = { by_item = Hashtbl.create 64 }

(* Never observed into: [observe_entry] refuses it. *)
let no_entry : entry = Int_table.create 1

let entry t ~item =
  match Hashtbl.find t.by_item item with
  | tbl -> tbl
  | exception Not_found ->
      let tbl = Int_table.create 8 in
      Hashtbl.add t.by_item item tbl;
      tbl

let observe_entry tbl ~site ~volume ~at =
  if tbl == no_entry then invalid_arg "Peer_view.observe_entry: no_entry";
  match Int_table.find tbl (Address.to_int site) with
  | prev ->
      if Time.(prev.at <= at) then begin
        prev.volume <- volume;
        prev.at <- at
      end
  | exception Not_found -> Int_table.add tbl (Address.to_int site) { site; volume; at }

let observe t ~site ~item ~volume ~at = observe_entry (entry t ~item) ~site ~volume ~at

let known t ~item =
  match Hashtbl.find_opt t.by_item item with
  | None -> []
  | Some tbl ->
      Int_table.fold (fun _ obs acc -> obs :: acc) tbl []
      |> List.sort (fun a b -> Address.compare a.site b.site)

let volume_of t ~site ~item =
  match Hashtbl.find_opt t.by_item item with
  | None -> None
  | Some tbl ->
      Option.map (fun o -> o.volume) (Int_table.find_opt tbl (Address.to_int site))

let richest t ~item ~exclude =
  let candidates =
    List.filter (fun o -> not (Address.Set.mem o.site exclude)) (known t ~item)
  in
  let better a b =
    (* larger volume wins; ties toward smaller address (list is sorted by
       address, so strict > keeps the earlier site). *)
    if b.volume > a.volume then b else a
  in
  match candidates with
  | [] -> None
  | first :: rest -> Some (List.fold_left better first rest).site

let items t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.by_item [] |> List.sort String.compare
