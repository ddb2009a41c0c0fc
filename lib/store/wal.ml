type record =
  | Create_table of { table : string; columns : Schema.column list }
  | Begin of int
  | Insert of { txid : int; table : string; key : string; row : Value.t array }
  | Update of { txid : int; table : string; key : string; col : string; before : Value.t; after : Value.t }
  | Delete of { txid : int; table : string; key : string; row : Value.t array }
  | Commit of int
  | Abort of int
  | Apply of { txid : int; table : string; key : string; col : string; before : Value.t; after : Value.t }

type t = {
  (* Slots [0, count) hold the retained log in append order, slot [i]
     holding the record at log sequence number [first + i]; the rest is
     spare capacity, filled with [spare] so it keeps no record alive.
     Appends double the array when it is full. *)
  mutable records : record array;
  mutable count : int;
  mutable first : int;
}

let spare = Abort (-1)
let create () = { records = [||]; count = 0; first = 0 }

let append t r =
  let n = t.count in
  if n = Array.length t.records then begin
    let grown = Array.make (Int.max 16 (2 * n)) spare in
    Array.blit t.records 0 grown 0 n;
    t.records <- grown
  end;
  t.records.(n) <- r;
  t.count <- n + 1;
  t.first + n

let length t = t.first + t.count
let first t = t.first

let records t =
  let rec from i acc = if i < 0 then acc else from (i - 1) (t.records.(i) :: acc) in
  from (t.count - 1) []

let nth t lsn =
  if lsn < t.first || lsn >= length t then invalid_arg "Wal.nth";
  t.records.(lsn - t.first)

let truncate t lsn =
  if lsn < t.first || lsn > length t then invalid_arg "Wal.truncate";
  let keep = lsn - t.first in
  Array.fill t.records keep (t.count - keep) spare;
  t.count <- keep

let drop_before t lsn =
  if lsn < t.first || lsn > length t then invalid_arg "Wal.drop_before";
  let dropped = lsn - t.first in
  let kept = t.count - dropped in
  Array.blit t.records dropped t.records 0 kept;
  Array.fill t.records kept dropped spare;
  t.count <- kept;
  t.first <- lsn

let committed_txids t =
  let tbl = Hashtbl.create 64 in
  for i = 0 to t.count - 1 do
    match t.records.(i) with
    | Commit txid | Apply { txid; _ } -> Hashtbl.replace tbl txid ()
    | _ -> ()
  done;
  tbl

(* --- encoding --- *)

(* Fields are separated by '|'; strings (table names, keys, columns) are
   hex-escaped through Value.encode's Str case so the separator can never
   appear inside a field. *)
let enc_str_into buf s = Value.encode_into buf (Value.Str s)

let dec_str s =
  match Value.decode s with
  | Ok (Value.Str s) -> Ok s
  | Ok _ -> Error "expected string field"
  | Error e -> Error e

let enc_row_into buf row =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Value.encode_into buf v)
    row

let dec_row s =
  if s = "" then Ok [||]
  else
    let parts = String.split_on_char ',' s in
    let rec loop acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest -> (
          match Value.decode p with Ok v -> loop (v :: acc) rest | Error e -> Error e)
    in
    loop [] parts

let ty_of_name = function
  | "int" -> Ok Value.Tint
  | "float" -> Ok Value.Tfloat
  | "string" -> Ok Value.Tstr
  | "bool" -> Ok Value.Tbool
  | s -> Error ("unknown type " ^ s)

let encode_record_into buf record =
  let tag c txid =
    Buffer.add_char buf c;
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int txid)
  in
  let field_str s =
    Buffer.add_char buf '|';
    enc_str_into buf s
  in
  match record with
  | Create_table { table; columns } ->
      Buffer.add_string buf "T";
      field_str table;
      Buffer.add_char buf '|';
      List.iteri
        (fun i { Schema.name; ty } ->
          if i > 0 then Buffer.add_char buf ',';
          enc_str_into buf name;
          Buffer.add_char buf '=';
          Buffer.add_string buf (Value.ty_name ty))
        columns
  | Begin txid -> tag 'B' txid
  | Insert { txid; table; key; row } ->
      tag 'I' txid;
      field_str table;
      field_str key;
      Buffer.add_char buf '|';
      enc_row_into buf row
  | Update { txid; table; key; col; before; after } ->
      tag 'U' txid;
      field_str table;
      field_str key;
      field_str col;
      Buffer.add_char buf '|';
      Value.encode_into buf before;
      Buffer.add_char buf '|';
      Value.encode_into buf after
  | Delete { txid; table; key; row } ->
      tag 'D' txid;
      field_str table;
      field_str key;
      Buffer.add_char buf '|';
      enc_row_into buf row
  | Commit txid -> tag 'C' txid
  | Abort txid -> tag 'A' txid
  | Apply { txid; table; key; col; before; after } ->
      tag 'P' txid;
      field_str table;
      field_str key;
      field_str col;
      Buffer.add_char buf '|';
      Value.encode_into buf before;
      Buffer.add_char buf '|';
      Value.encode_into buf after

let encode_record record =
  let buf = Buffer.create 64 in
  encode_record_into buf record;
  Buffer.contents buf

let ( let* ) = Result.bind

let int_field s =
  match int_of_string_opt s with Some n -> Ok n | None -> Error ("bad int " ^ s)

let decode_record line =
  match String.split_on_char '|' line with
  | [ "T"; table; cols ] ->
      let* table = dec_str table in
      let col_parts = if cols = "" then [] else String.split_on_char ',' cols in
      let rec loop acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
            match String.index_opt p '=' with
            | None -> Error ("bad column spec " ^ p)
            | Some i ->
                let* name = dec_str (String.sub p 0 i) in
                let* ty = ty_of_name (String.sub p (i + 1) (String.length p - i - 1)) in
                loop ({ Schema.name; ty } :: acc) rest)
      in
      let* columns = loop [] col_parts in
      Ok (Create_table { table; columns })
  | [ "B"; txid ] ->
      let* txid = int_field txid in
      Ok (Begin txid)
  | [ "I"; txid; table; key; row ] ->
      let* txid = int_field txid in
      let* table = dec_str table in
      let* key = dec_str key in
      let* row = dec_row row in
      Ok (Insert { txid; table; key; row })
  | [ "U"; txid; table; key; col; before; after ] ->
      let* txid = int_field txid in
      let* table = dec_str table in
      let* key = dec_str key in
      let* col = dec_str col in
      let* before = Value.decode before in
      let* after = Value.decode after in
      Ok (Update { txid; table; key; col; before; after })
  | [ "D"; txid; table; key; row ] ->
      let* txid = int_field txid in
      let* table = dec_str table in
      let* key = dec_str key in
      let* row = dec_row row in
      Ok (Delete { txid; table; key; row })
  | [ "C"; txid ] ->
      let* txid = int_field txid in
      Ok (Commit txid)
  | [ "A"; txid ] ->
      let* txid = int_field txid in
      Ok (Abort txid)
  | [ "P"; txid; table; key; col; before; after ] ->
      let* txid = int_field txid in
      let* table = dec_str table in
      let* key = dec_str key in
      let* col = dec_str col in
      let* before = Value.decode before in
      let* after = Value.decode after in
      Ok (Apply { txid; table; key; col; before; after })
  | _ -> Error ("Wal.decode_record: malformed line " ^ line)

let to_string t =
  let buf = Buffer.create 256 in
  for i = 0 to t.count - 1 do
    if i > 0 then Buffer.add_char buf '\n';
    encode_record_into buf t.records.(i)
  done;
  Buffer.contents buf

let of_string s =
  let t = create () in
  let lines = if s = "" then [] else String.split_on_char '\n' s in
  let rec loop offset = function
    | [] -> Ok t
    | line :: rest -> (
        match decode_record line with
        | Ok r ->
            ignore (append t r);
            loop (offset + String.length line + 1) rest
        (* An undecodable *final* line is a tail torn by a crash mid-append:
           recover the decoded prefix, exactly what replaying a physical log
           file does. Anywhere else it is corruption and must fail, located
           so the caller can report file:offset context. *)
        | Error _ when rest = [] -> Ok t
        | Error e -> Error (Corruption.v ~segment:0 ~offset e))
  in
  loop 0 lines

let equal_record a b =
  match (a, b) with
  | Create_table x, Create_table y -> x.table = y.table && x.columns = y.columns
  | Begin x, Begin y | Commit x, Commit y | Abort x, Abort y -> x = y
  | Insert x, Insert y ->
      x.txid = y.txid && x.table = y.table && x.key = y.key
      && Array.length x.row = Array.length y.row
      && Array.for_all2 Value.equal x.row y.row
  | Update x, Update y ->
      x.txid = y.txid && x.table = y.table && x.key = y.key && x.col = y.col
      && Value.equal x.before y.before && Value.equal x.after y.after
  | Apply x, Apply y ->
      x.txid = y.txid && x.table = y.table && x.key = y.key && x.col = y.col
      && Value.equal x.before y.before && Value.equal x.after y.after
  | Delete x, Delete y ->
      x.txid = y.txid && x.table = y.table && x.key = y.key
      && Array.length x.row = Array.length y.row
      && Array.for_all2 Value.equal x.row y.row
  | (Create_table _ | Begin _ | Insert _ | Update _ | Delete _ | Commit _ | Abort _ | Apply _), _
    ->
      false

let pp_record ppf r = Format.pp_print_string ppf (encode_record r)
