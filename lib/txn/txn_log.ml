open Avdb_sim
open Avdb_net

(* The protocol log is append-only, like the storage WAL: every state
   transition of the commit protocol is a record, and the queryable
   entry table is just an index rebuilt by replay. The log object (like
   the WAL) survives a simulated crash — serialisation exists so the
   same bytes could sit on disk. *)

(* One write intent of the epoch-quorum commit class: what a writer records
   durably before telling any sequencer, and what a seal totally orders. *)
type intent = { i_txid : int; i_origin : Address.t; i_delta : int }

type record =
  | Start of {
      txid : int;
      coordinator : Address.t;
      cohort : Address.t list;
      item : string;
      delta : int;
      at : Time.t;
    }
  | Outcome of { txid : int; decision : Two_phase.decision; at : Time.t }
  | End of { txid : int; at : Time.t }
  | Refused of { txid : int; at : Time.t }
  | Intent of { txid : int; origin : Address.t; item : string; delta : int; at : Time.t }
  | Epoch_accept of {
      item : string;
      epoch : int;
      ballot : int;
      seal : intent list;
      at : Time.t;
    }
  | Epoch_seal of { item : string; epoch : int; seal : intent list; at : Time.t }
  | Epoch_promise of { item : string; epoch : int; ballot : int; at : Time.t }
  | Epoch_floor of { item : string; epoch : int; at : Time.t }

type entry = {
  txid : int;
  coordinator : Address.t;
  cohort : Address.t list;
  item : string;
  delta : int;
  started_at : Time.t;
  mutable outcome : Two_phase.decision option;
  mutable finished_at : Time.t option;
  mutable ended : bool;
}

type intent_entry = {
  in_txid : int;
  in_origin : Address.t;
  in_item : string;
  in_delta : int;
  in_at : Time.t;
  mutable in_sealed : bool;
      (* set once a logged seal (any epoch) contains this txid — the
         intent's doubt is resolved and the pump stops re-sending it *)
}

(* One epoch item's records, each table keyed by epoch: one string lookup
   finds the item, and every epoch lookup after it hashes an int. *)
type epochs = {
  accepts : (int * intent list) Int_table.t;  (* highest-ballot accepted proposal *)
  seals : intent list Int_table.t;
  promises : int Int_table.t;  (* highest ballot durably promised *)
  mutable floor : int;
      (* epoch through which this log holds no seals because the state was
         installed from a snapshot (join or quarantine repair); 0 when none *)
}

module Items = Hashtbl.Make (String)

type t = {
  (* Slots [0, count) hold the log in append order; the rest is spare
     capacity, filled with [spare] so it keeps no record alive. Appends
     double the array when it is full. *)
  mutable records : record array;
  mutable count : int;
  entries : entry Int_table.t;
  refused : unit Int_table.t;
  intents : intent_entry Int_table.t;
  items : epochs Items.t;
}

let spare = End { txid = -1; at = Time.zero }

let create () =
  {
    records = [||];
    count = 0;
    entries = Int_table.create 32;
    refused = Int_table.create 8;
    intents = Int_table.create 8;
    items = Items.create 8;
  }

(* The item's records, created empty on its first record. *)
let epochs t item =
  match Items.find_opt t.items item with
  | Some e -> e
  | None ->
      let e =
        {
          accepts = Int_table.create 8;
          seals = Int_table.create 8;
          promises = Int_table.create 8;
          floor = 0;
        }
      in
      Items.add t.items item e;
      e

let records t =
  let rec from i acc = if i < 0 then acc else from (i - 1) (t.records.(i) :: acc) in
  from (t.count - 1) []

let length t = t.count

let push t r =
  let n = t.count in
  if n = Array.length t.records then begin
    let grown = Array.make (Int.max 16 (2 * n)) spare in
    Array.blit t.records 0 grown 0 n;
    t.records <- grown
  end;
  t.records.(n) <- r;
  t.count <- n + 1

(* Index maintenance shared by live appends and replay. *)
let index t = function
  | Start { txid; coordinator; cohort; item; delta; at } ->
      if Int_table.mem t.entries txid then invalid_arg "Txn_log.record_start: duplicate txid";
      Int_table.add t.entries txid
        {
          txid;
          coordinator;
          cohort;
          item;
          delta;
          started_at = at;
          outcome = None;
          finished_at = None;
          ended = false;
        }
  | Outcome { txid; decision; at } -> (
      match Int_table.find t.entries txid with
      | { outcome = None; _ } as e ->
          e.outcome <- Some decision;
          e.finished_at <- Some at
      | { outcome = Some _; _ } | (exception Not_found) -> ())
  | End { txid; _ } -> (
      match Int_table.find t.entries txid with
      | e -> e.ended <- true
      | exception Not_found -> ())
  | Refused { txid; _ } -> Int_table.replace t.refused txid ()
  | Intent { txid; origin; item; delta; at } ->
      if not (Int_table.mem t.intents txid) then
        Int_table.add t.intents txid
          {
            in_txid = txid;
            in_origin = origin;
            in_item = item;
            in_delta = delta;
            in_at = at;
            in_sealed = false;
          }
  | Epoch_accept { item; epoch; ballot; seal; _ } -> (
      let e = epochs t item in
      match Int_table.find_opt e.accepts epoch with
      | Some (b, _) when b >= ballot -> ()
      | Some _ | None -> Int_table.replace e.accepts epoch (ballot, seal))
  | Epoch_seal { item; epoch; seal; _ } ->
      Int_table.replace (epochs t item).seals epoch seal;
      List.iter
        (fun i ->
          match Int_table.find_opt t.intents i.i_txid with
          | Some e -> e.in_sealed <- true
          | None -> ())
        seal
  | Epoch_promise { item; epoch; ballot; _ } -> (
      let e = epochs t item in
      match Int_table.find_opt e.promises epoch with
      | Some b when b >= ballot -> ()
      | Some _ | None -> Int_table.replace e.promises epoch ballot)
  | Epoch_floor { item; epoch; _ } ->
      let e = epochs t item in
      if epoch > e.floor then e.floor <- epoch

let append t r =
  index t r;
  push t r

let record_start t ~txid ~coordinator ~cohort ~item ~delta ~at =
  append t (Start { txid; coordinator; cohort; item; delta; at })

let record_outcome t ~txid outcome ~at =
  (* Idempotent: only the first outcome is durable. Unknown txids are
     ignored (the prepare may have been refused before logging). *)
  match Int_table.find t.entries txid with
  | { outcome = None; _ } -> append t (Outcome { txid; decision = outcome; at })
  | { outcome = Some _; _ } | (exception Not_found) -> ()

let record_end t ~txid ~at =
  match Int_table.find t.entries txid with
  | { ended = false; _ } -> append t (End { txid; at })
  | { ended = true; _ } | (exception Not_found) -> ()

let record_refused t ~txid ~at =
  if not (Int_table.mem t.refused txid) then append t (Refused { txid; at })

(* --- epoch-quorum commit records --- *)

let record_intent t ~txid ~origin ~item ~delta ~at =
  if not (Int_table.mem t.intents txid) then
    append t (Intent { txid; origin; item; delta; at })

(* An item with no record yet answers every query as empty. *)
let find_epochs t item = Items.find_opt t.items item

let epoch_accept t ~item ~epoch =
  match find_epochs t item with Some e -> Int_table.find_opt e.accepts epoch | None -> None

let epoch_seal t ~item ~epoch =
  match find_epochs t item with Some e -> Int_table.find_opt e.seals epoch | None -> None

let epoch_promise t ~item ~epoch =
  match find_epochs t item with
  | None -> 0
  | Some e -> (
      let promised = Option.value ~default:0 (Int_table.find_opt e.promises epoch) in
      match Int_table.find_opt e.accepts epoch with
      | Some (b, _) -> Stdlib.max promised b
      | None -> promised)

let epoch_floor t ~item = match find_epochs t item with Some e -> e.floor | None -> 0

let record_epoch_accept t ~item ~epoch ~ballot ~seal ~at =
  match epoch_accept t ~item ~epoch with
  | Some (b, _) when b >= ballot -> ()
  | Some _ | None -> append t (Epoch_accept { item; epoch; ballot; seal; at })

let record_epoch_seal t ~item ~epoch ~seal ~at =
  if epoch_seal t ~item ~epoch = None then append t (Epoch_seal { item; epoch; seal; at })

let record_epoch_promise t ~item ~epoch ~ballot ~at =
  let promised =
    match find_epochs t item with Some e -> Int_table.find_opt e.promises epoch | None -> None
  in
  match promised with
  | Some b when b >= ballot -> ()
  | Some _ | None -> append t (Epoch_promise { item; epoch; ballot; at })

let record_epoch_floor t ~item ~epoch ~at =
  if epoch > epoch_floor t ~item then append t (Epoch_floor { item; epoch; at })

let intents t =
  Int_table.fold (fun _ e acc -> e :: acc) t.intents []
  |> List.sort (fun a b -> Int.compare a.in_txid b.in_txid)

let unsealed_intents t = List.filter (fun e -> not e.in_sealed) (intents t)

let epoch_seals t =
  Items.fold
    (fun item e acc -> Int_table.fold (fun epoch seal acc -> (item, epoch, seal) :: acc) e.seals acc)
    t.items []
  |> List.sort (fun (a, e, _) (b, f, _) ->
         match String.compare a b with 0 -> Int.compare e f | c -> c)

(* Highest epoch with every seal from 1 up to it present — the prefix a
   recovering subscriber can trust it applied (seals are logged in the
   same atomic event as their local apply, in epoch order). *)
let max_contiguous_seal t ~item =
  match find_epochs t item with
  | None -> 0
  | Some e ->
      let rec loop n = if Int_table.mem e.seals (n + 1) then loop (n + 1) else n in
      loop e.floor

let find t ~txid = Int_table.find_opt t.entries txid
let is_refused t ~txid = Int_table.mem t.refused txid

let is_decided t ~txid =
  match Int_table.find t.entries txid with
  | { outcome = Some _; _ } -> true
  | { outcome = None; _ } | (exception Not_found) -> false

let entries t =
  Int_table.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> Int.compare a.txid b.txid)

let in_doubt t = List.filter (fun e -> e.outcome = None) (entries t)

let count p t = Int_table.fold (fun _ e acc -> if p e then acc + 1 else acc) t.entries 0
let committed t = count (fun e -> e.outcome = Some Two_phase.Commit) t
let aborted t = count (fun e -> e.outcome = Some Two_phase.Abort) t
let in_flight t = count (fun e -> e.outcome = None) t

let max_txid t = Int_table.fold (fun txid _ acc -> Stdlib.max txid acc) t.entries (-1)

(* --- encoding ---

   One record per line, '|'-separated fields; the item is hex-escaped
   through Value-style encoding in the WAL, here it is percent-free
   already but we escape '|' and newline defensively. *)

let enc_str s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '|' | '%' | '\n' -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dec_str s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec loop i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] = '%' then
      if i + 2 < n then begin
        match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code ->
            Buffer.add_char buf (Char.chr code);
            loop (i + 3)
        | None -> Error ("bad escape in " ^ s)
      end
      else Error ("truncated escape in " ^ s)
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0

let enc_cohort cohort =
  String.concat "," (List.map (fun a -> string_of_int (Address.to_int a)) cohort)

let dec_cohort s =
  if s = "" then Ok []
  else
    let rec loop acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match int_of_string_opt p with
          | Some n -> loop (Address.of_int n :: acc) rest
          | None -> Error ("bad cohort member " ^ p))
    in
    loop [] (String.split_on_char ',' s)

let enc_decision = function Two_phase.Commit -> "C" | Two_phase.Abort -> "A"

let dec_decision = function
  | "C" -> Ok Two_phase.Commit
  | "A" -> Ok Two_phase.Abort
  | s -> Error ("bad decision " ^ s)

(* A seal is a comma-separated list of txid:origin:delta triples — all
   ints, so no escaping interacts with the '|' field separator. *)
let enc_seal seal =
  String.concat ","
    (List.map
       (fun i ->
         Printf.sprintf "%d:%d:%d" i.i_txid (Address.to_int i.i_origin) i.i_delta)
       seal)

let dec_seal s =
  if s = "" then Ok []
  else
    let rec loop acc = function
      | [] -> Ok (List.rev acc)
      | triple :: rest -> (
          match String.split_on_char ':' triple with
          | [ txid; origin; delta ] -> (
              match
                (int_of_string_opt txid, int_of_string_opt origin, int_of_string_opt delta)
              with
              | Some i_txid, Some origin, Some i_delta ->
                  loop ({ i_txid; i_origin = Address.of_int origin; i_delta } :: acc) rest
              | _ -> Error ("bad seal intent " ^ triple))
          | _ -> Error ("bad seal intent " ^ triple))
    in
    loop [] (String.split_on_char ',' s)

let encode_record = function
  | Start { txid; coordinator; cohort; item; delta; at } ->
      Printf.sprintf "S|%d|%d|%s|%s|%d|%d" txid
        (Address.to_int coordinator)
        (enc_cohort cohort) (enc_str item) delta (Time.to_us at)
  | Outcome { txid; decision; at } ->
      Printf.sprintf "O|%d|%s|%d" txid (enc_decision decision) (Time.to_us at)
  | End { txid; at } -> Printf.sprintf "E|%d|%d" txid (Time.to_us at)
  | Refused { txid; at } -> Printf.sprintf "R|%d|%d" txid (Time.to_us at)
  | Intent { txid; origin; item; delta; at } ->
      Printf.sprintf "I|%d|%d|%s|%d|%d" txid (Address.to_int origin) (enc_str item) delta
        (Time.to_us at)
  | Epoch_accept { item; epoch; ballot; seal; at } ->
      Printf.sprintf "A|%s|%d|%d|%s|%d" (enc_str item) epoch ballot (enc_seal seal)
        (Time.to_us at)
  | Epoch_seal { item; epoch; seal; at } ->
      Printf.sprintf "L|%s|%d|%s|%d" (enc_str item) epoch (enc_seal seal) (Time.to_us at)
  | Epoch_promise { item; epoch; ballot; at } ->
      Printf.sprintf "P|%s|%d|%d|%d" (enc_str item) epoch ballot (Time.to_us at)
  | Epoch_floor { item; epoch; at } ->
      Printf.sprintf "F|%s|%d|%d" (enc_str item) epoch (Time.to_us at)

let ( let* ) = Result.bind

let int_field s =
  match int_of_string_opt s with Some n -> Ok n | None -> Error ("bad int " ^ s)

let decode_record line =
  match String.split_on_char '|' line with
  | [ "S"; txid; coordinator; cohort; item; delta; at ] ->
      let* txid = int_field txid in
      let* coordinator = Result.map Address.of_int (int_field coordinator) in
      let* cohort = dec_cohort cohort in
      let* item = dec_str item in
      let* delta = int_field delta in
      let* at = Result.map Time.of_us (int_field at) in
      Ok (Start { txid; coordinator; cohort; item; delta; at })
  | [ "O"; txid; decision; at ] ->
      let* txid = int_field txid in
      let* decision = dec_decision decision in
      let* at = Result.map Time.of_us (int_field at) in
      Ok (Outcome { txid; decision; at })
  | [ "E"; txid; at ] ->
      let* txid = int_field txid in
      let* at = Result.map Time.of_us (int_field at) in
      Ok (End { txid; at })
  | [ "R"; txid; at ] ->
      let* txid = int_field txid in
      let* at = Result.map Time.of_us (int_field at) in
      Ok (Refused { txid; at })
  | [ "I"; txid; origin; item; delta; at ] ->
      let* txid = int_field txid in
      let* origin = Result.map Address.of_int (int_field origin) in
      let* item = dec_str item in
      let* delta = int_field delta in
      let* at = Result.map Time.of_us (int_field at) in
      Ok (Intent { txid; origin; item; delta; at })
  | [ "A"; item; epoch; ballot; seal; at ] ->
      let* item = dec_str item in
      let* epoch = int_field epoch in
      let* ballot = int_field ballot in
      let* seal = dec_seal seal in
      let* at = Result.map Time.of_us (int_field at) in
      Ok (Epoch_accept { item; epoch; ballot; seal; at })
  | [ "L"; item; epoch; seal; at ] ->
      let* item = dec_str item in
      let* epoch = int_field epoch in
      let* seal = dec_seal seal in
      let* at = Result.map Time.of_us (int_field at) in
      Ok (Epoch_seal { item; epoch; seal; at })
  | [ "P"; item; epoch; ballot; at ] ->
      let* item = dec_str item in
      let* epoch = int_field epoch in
      let* ballot = int_field ballot in
      let* at = Result.map Time.of_us (int_field at) in
      Ok (Epoch_promise { item; epoch; ballot; at })
  | [ "F"; item; epoch; at ] ->
      let* item = dec_str item in
      let* epoch = int_field epoch in
      let* at = Result.map Time.of_us (int_field at) in
      Ok (Epoch_floor { item; epoch; at })
  | _ -> Error ("Txn_log.decode_record: malformed line " ^ line)

let to_string t = String.concat "\n" (List.map encode_record (records t))

(* Like {!Wal.of_string}: an undecodable final line is a torn tail from a
   crash mid-append — recover the prefix. Mid-log corruption still fails,
   located by byte offset for file:offset error context. *)
let of_string s =
  let t = create () in
  let lines = if s = "" then [] else String.split_on_char '\n' s in
  let rec loop offset = function
    | [] -> Ok t
    | line :: rest -> (
        match decode_record line with
        | Ok r ->
            append t r;
            loop (offset + String.length line + 1) rest
        | Error _ when rest = [] -> Ok t
        | Error e -> Error (Avdb_store.Corruption.v ~segment:0 ~offset e))
  in
  loop 0 lines

let pp_record ppf r = Format.pp_print_string ppf (encode_record r)
