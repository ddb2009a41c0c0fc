type entry = {
  item : string;
  mutable available : int;
  mutable held : int;
  (* Process-lifetime conservation ledger: volume defined at creation,
     created by positive local updates, and destroyed by committed
     negative updates. Grants move volume between tables and touch none
     of these, so at quiescence
       available + held = defined + minted - consumed
     summed across sites, whatever faults occurred in between. *)
  mutable defined_volume : int;
  mutable minted : int;
  mutable consumed_total : int;
}

type t = (string, entry) Hashtbl.t

let create () = Hashtbl.create 64

let fresh_entry item volume =
  { item; available = volume; held = 0; defined_volume = volume; minted = 0; consumed_total = 0 }

let define t ~item ~volume =
  if volume < 0 then invalid_arg "Av_table: negative volume";
  if Hashtbl.mem t item then
    invalid_arg ("Av_table: AV already defined on " ^ item);
  Hashtbl.add t item (fresh_entry item volume)

(* In no table, and every entry form refuses it, so nothing ever writes
   it and it reads 0 available. *)
let no_entry = fresh_entry "" 0

(* Every AV operation sits on the Delay-Update hot path, so lookups are
   exception-style ([Hashtbl.find], no [Some] per hit) and each operation
   matches on the entry directly instead of going through a [with_entry]
   combinator whose callback would be a fresh closure per call. *)
let entry_or_no_entry t ~item =
  match Hashtbl.find t item with e -> e | exception Not_found -> no_entry

let entry_item e = e.item
let entry_available e = e.available

let available t ~item =
  match Hashtbl.find t item with e -> e.available | exception Not_found -> 0

let held t ~item = match Hashtbl.find t item with e -> e.held | exception Not_found -> 0

let total t ~item =
  match Hashtbl.find t item with
  | e -> e.available + e.held
  | exception Not_found -> 0

let no_av item = Error (Printf.sprintf "no AV defined on %S" item)

let check_amount amount =
  if amount < 0 then invalid_arg "Av_table: negative amount" else amount

(* The entry forms hold each operation's body; the named forms look the
   entry up and call them. An undefined item fails as [no_entry] does,
   and a negative amount raises first either way. *)
let entry_hold e amount =
  let amount = check_amount amount in
  if e == no_entry then no_av e.item
  else if e.available < amount then
    Error
      (Printf.sprintf "insufficient AV on %S: available %d < %d" e.item e.available amount)
  else begin
    e.available <- e.available - amount;
    e.held <- e.held + amount;
    Ok ()
  end

let entry_consume e amount =
  let amount = check_amount amount in
  if e == no_entry then no_av e.item
  else if e.held < amount then
    Error (Printf.sprintf "consume exceeds hold on %S: held %d < %d" e.item e.held amount)
  else begin
    e.held <- e.held - amount;
    e.consumed_total <- e.consumed_total + amount;
    Ok ()
  end

let entry_mint e amount =
  let amount = check_amount amount in
  if e == no_entry then no_av e.item
  else begin
    e.available <- e.available + amount;
    e.minted <- e.minted + amount;
    Ok ()
  end

let named op t ~item amount =
  match Hashtbl.find t item with
  | exception Not_found ->
      ignore (check_amount amount);
      no_av item
  | e -> op e amount

(* Everything available moves to held; nothing ever writes [no_entry],
   which has nothing available. *)
let entry_hold_all e =
  let grabbed = e.available in
  if grabbed > 0 then begin
    e.available <- 0;
    e.held <- e.held + grabbed
  end;
  grabbed

let entry_release e amount =
  let amount = check_amount amount in
  if e == no_entry then no_av e.item
  else if e.held < amount then
    Error (Printf.sprintf "release exceeds hold on %S: held %d < %d" e.item e.held amount)
  else begin
    e.held <- e.held - amount;
    e.available <- e.available + amount;
    Ok ()
  end

let entry_deposit e amount =
  let amount = check_amount amount in
  if e == no_entry then no_av e.item
  else begin
    e.available <- e.available + amount;
    Ok ()
  end

let entry_withdraw e amount =
  let amount = check_amount amount in
  if e == no_entry then no_av e.item
  else if e.available < amount then
    Error
      (Printf.sprintf "withdraw exceeds AV on %S: available %d < %d" e.item e.available amount)
  else begin
    e.available <- e.available - amount;
    Ok ()
  end

let hold t ~item amount = named entry_hold t ~item amount
let consume t ~item amount = named entry_consume t ~item amount
let mint t ~item amount = named entry_mint t ~item amount

let release_all t =
  Hashtbl.iter
    (fun _ e ->
      e.available <- e.available + e.held;
      e.held <- 0)
    t

let defined_volume t ~item =
  match Hashtbl.find t item with e -> e.defined_volume | exception Not_found -> 0

let minted t ~item = match Hashtbl.find t item with e -> e.minted | exception Not_found -> 0

let consumed t ~item =
  match Hashtbl.find t item with e -> e.consumed_total | exception Not_found -> 0

let items t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let snapshot t =
  List.map (fun item -> let e = Hashtbl.find t item in (item, e.available, e.held)) (items t)
