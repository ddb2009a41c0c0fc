type entry = {
  item : string;
  mutable defined : bool;  (* cleared by [undefine]: the entry refuses *)
  mutable available : int;
  mutable held : int;
  (* Process-lifetime conservation ledger (not serialised): volume defined
     at creation, created by positive local updates, and destroyed by
     committed negative updates. Grants move volume between tables and
     touch none of these, so at quiescence
       available + held = defined + minted - consumed
     summed across sites, whatever faults occurred in between. *)
  mutable defined_volume : int;
  mutable minted : int;
  mutable consumed_total : int;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable definitions : int;  (* defines plus undefines so far *)
}

let create () = { entries = Hashtbl.create 64; definitions = 0 }

let fresh_entry item ~available ~held =
  {
    item;
    defined = true;
    available;
    held;
    defined_volume = available + held;
    minted = 0;
    consumed_total = 0;
  }

let define t ~item ~volume =
  if volume < 0 then invalid_arg "Av_table.define: negative volume";
  if Hashtbl.mem t.entries item then
    invalid_arg ("Av_table.define: AV already defined on " ^ item);
  Hashtbl.add t.entries item (fresh_entry item ~available:volume ~held:0);
  t.definitions <- t.definitions + 1

let undefine t ~item =
  match Hashtbl.find t.entries item with
  | exception Not_found -> ()
  | e ->
      e.defined <- false;
      Hashtbl.remove t.entries item;
      t.definitions <- t.definitions + 1

let is_defined t ~item = Hashtbl.mem t.entries item
let definitions t = t.definitions

(* Every AV operation sits on the Delay-Update hot path, so lookups are
   exception-style ([Hashtbl.find], no [Some] per hit) and each operation
   matches on the entry directly instead of going through a [with_entry]
   combinator whose callback would be a fresh closure per call. *)
let entry_exn t item = Hashtbl.find t.entries item
let entry t ~item = entry_exn t item

(* Dead from the start and in no table, so every entry form refuses it
   and nothing ever writes it. *)
let no_entry = { (fresh_entry "" ~available:0 ~held:0) with defined = false }

let entry_or_no_entry t ~item =
  match entry_exn t item with e -> e | exception Not_found -> no_entry

let entry_available e = if e.defined then e.available else 0

let available t ~item =
  match entry_exn t item with e -> entry_available e | exception Not_found -> 0

let held t ~item = match entry_exn t item with e -> e.held | exception Not_found -> 0

let total t ~item =
  match entry_exn t item with
  | e -> e.available + e.held
  | exception Not_found -> 0

let no_av item = Error (Printf.sprintf "no AV defined on %S" item)

let check_amount amount =
  if amount < 0 then invalid_arg "Av_table: negative amount" else amount

(* The entry forms hold each operation's body; the named forms look the
   entry up and call them. An undefined item fails as a dead entry does,
   and a negative amount raises first either way. *)
let entry_hold e amount =
  let amount = check_amount amount in
  if not e.defined then no_av e.item
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
  if not e.defined then no_av e.item
  else if e.held < amount then
    Error (Printf.sprintf "consume exceeds hold on %S: held %d < %d" e.item e.held amount)
  else begin
    e.held <- e.held - amount;
    e.consumed_total <- e.consumed_total + amount;
    Ok ()
  end

let entry_mint e amount =
  let amount = check_amount amount in
  if not e.defined then no_av e.item
  else begin
    e.available <- e.available + amount;
    e.minted <- e.minted + amount;
    Ok ()
  end

let named op t ~item amount =
  match entry_exn t item with
  | exception Not_found ->
      ignore (check_amount amount);
      no_av item
  | e -> op e amount

let hold t ~item amount = named entry_hold t ~item amount

let hold_all t ~item =
  match entry_exn t item with
  | exception Not_found -> 0
  | e ->
      let grabbed = e.available in
      e.available <- 0;
      e.held <- e.held + grabbed;
      grabbed

let release t ~item amount =
  let amount = check_amount amount in
  match entry_exn t item with
  | exception Not_found -> no_av item
  | e ->
      if e.held < amount then
        Error (Printf.sprintf "release exceeds hold on %S: held %d < %d" item e.held amount)
      else begin
        e.held <- e.held - amount;
        e.available <- e.available + amount;
        Ok ()
      end

let consume t ~item amount = named entry_consume t ~item amount

let deposit t ~item amount =
  let amount = check_amount amount in
  match entry_exn t item with
  | exception Not_found -> no_av item
  | e ->
      e.available <- e.available + amount;
      Ok ()

let mint t ~item amount = named entry_mint t ~item amount

let release_all t =
  Hashtbl.iter
    (fun _ e ->
      e.available <- e.available + e.held;
      e.held <- 0)
    t.entries

let defined_volume t ~item =
  match entry_exn t item with e -> e.defined_volume | exception Not_found -> 0

let minted t ~item = match entry_exn t item with e -> e.minted | exception Not_found -> 0

let consumed t ~item =
  match entry_exn t item with e -> e.consumed_total | exception Not_found -> 0

let withdraw t ~item amount =
  let amount = check_amount amount in
  match entry_exn t item with
  | exception Not_found -> no_av item
  | e ->
      if e.available < amount then
        Error
          (Printf.sprintf "withdraw exceeds AV on %S: available %d < %d" item e.available
             amount)
      else begin
        e.available <- e.available - amount;
        Ok ()
      end

let items t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [] |> List.sort String.compare

let sum_total t = Hashtbl.fold (fun _ e acc -> acc + e.available + e.held) t.entries 0

let snapshot t =
  List.map (fun item -> let e = Hashtbl.find t.entries item in (item, e.available, e.held)) (items t)

(* item names are hex-escaped so separators can never collide. *)
let hex_encode s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex_decode s =
  if String.length s mod 2 <> 0 then Error "odd hex length"
  else
    try
      Ok
        (String.init (String.length s / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> Error "bad hex"

let encode t =
  String.concat "\n"
    (List.map
       (fun (item, available, held) ->
         Printf.sprintf "%s|%d|%d" (hex_encode item) available held)
       (snapshot t))

let decode s =
  let t = create () in
  let lines = if s = "" then [] else String.split_on_char '\n' s in
  let rec loop = function
    | [] -> Ok t
    | line :: rest -> (
        match String.split_on_char '|' line with
        | [ item; available; held ] -> (
            match (hex_decode item, int_of_string_opt available, int_of_string_opt held) with
            | Ok item, Some available, Some held when available >= 0 && held >= 0 ->
                if Hashtbl.mem t.entries item then Error ("duplicate item " ^ item)
                else begin
                  (* The ledger is not serialised: a decoded table starts a
                     fresh conservation baseline at its current volume. *)
                  Hashtbl.add t.entries item (fresh_entry item ~available ~held);
                  t.definitions <- t.definitions + 1;
                  loop rest
                end
            | _ -> Error ("Av_table.decode: bad line " ^ line))
        | _ -> Error ("Av_table.decode: malformed line " ^ line))
  in
  loop lines

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun item ->
      let e = Hashtbl.find t.entries item in
      Format.fprintf ppf "%s: available=%d held=%d@ " item e.available e.held)
    (items t);
  Format.fprintf ppf "@]"
