module Value_map = Map.Make (Value)
module String_set = Set.Make (String)

(* A secondary index: column value -> set of primary keys. Ordered by
   Value.compare so range lookups walk the map in value order. *)
type index = { pos : int; mutable entries : String_set.t Value_map.t }

(* Rows live in a B-tree keyed by primary key: point ops are O(log n) and
   ordered iteration / range scans come for free. *)
type t = {
  name : string;
  schema : Schema.t;
  rows : Value.t array Btree.t;
  indexes : (string, index) Hashtbl.t;
  mutable removed : int;
      (* rows removed so far: a handle taken at a lower count may hold a
         row array the table no longer stores *)
}

(* A handle holds the stored row array itself, so it sees every in-place
   write by name and writes where the name would. *)
type handle = {
  h_table : t;
  h_key : string;
  h_col : string;
  h_row : Value.t array;
  h_pos : int;
  h_removed : int;  (* [removed] when the handle was taken *)
}

let create ~name schema =
  { name; schema; rows = Btree.create (); indexes = Hashtbl.create 4; removed = 0 }

let index_add idx value key =
  let existing = Option.value ~default:String_set.empty (Value_map.find_opt value idx.entries) in
  idx.entries <- Value_map.add value (String_set.add key existing) idx.entries

let index_remove idx value key =
  match Value_map.find_opt value idx.entries with
  | None -> ()
  | Some set ->
      let set = String_set.remove key set in
      idx.entries <-
        (if String_set.is_empty set then Value_map.remove value idx.entries
         else Value_map.add value set idx.entries)

(* Each of these is guarded by an index-count check: most tables carry no
   secondary indexes, and [Hashtbl.iter]'s closure would otherwise be
   allocated on every row mutation for nothing. *)
let indexes_on_insert t key row =
  if Hashtbl.length t.indexes > 0 then
    Hashtbl.iter (fun _ idx -> index_add idx row.(idx.pos) key) t.indexes

let indexes_on_delete t key row =
  if Hashtbl.length t.indexes > 0 then
    Hashtbl.iter (fun _ idx -> index_remove idx row.(idx.pos) key) t.indexes

let indexes_on_update t key ~pos ~before ~after =
  if Hashtbl.length t.indexes > 0 then
    Hashtbl.iter
      (fun _ idx ->
        if idx.pos = pos && not (Value.equal before after) then begin
          index_remove idx before key;
          index_add idx after key
        end)
      t.indexes
let name t = t.name
let schema t = t.schema

let insert t ~key row =
  if Btree.mem t.rows ~key then Error (Printf.sprintf "duplicate key %S" key)
  else
    match Schema.validate_row t.schema row with
    | Error e -> Error e
    | Ok () ->
        let stored = Array.copy row in
        Btree.insert t.rows ~key stored;
        indexes_on_insert t key stored;
        Ok ()

let get t ~key = Option.map Array.copy (Btree.find t.rows ~key)

let get_col t ~key ~col =
  match Btree.find t.rows ~key with
  | None -> Error (Printf.sprintf "no such key %S" key)
  | Some row -> (
      match Schema.index_opt t.schema col with
      | None -> Error (Printf.sprintf "no such column %S" col)
      | Some i -> Ok row.(i))

let set_col t ~key ~col value =
  match Btree.find t.rows ~key with
  | None -> Error (Printf.sprintf "no such key %S" key)
  | Some row -> (
      match Schema.index_opt t.schema col with
      | None -> Error (Printf.sprintf "no such column %S" col)
      | Some i ->
          if Value.type_of value <> Schema.column_ty t.schema col then
            Error
              (Printf.sprintf "column %S expects %s" col
                 (Value.ty_name (Schema.column_ty t.schema col)))
          else begin
            let old = row.(i) in
            row.(i) <- value;
            indexes_on_update t key ~pos:i ~before:old ~after:value;
            Ok old
          end)

(* The one body of an in-place add, by name or by handle: the value the
   add replaced. Raises [Invalid_argument] on a non-numeric column. *)
let add_in t ~key row pos delta =
  let before = row.(pos) in
  let after = Value.add_int before delta in
  row.(pos) <- after;
  indexes_on_update t key ~pos ~before ~after;
  before

let add_int_swap t ~key ~col delta =
  match Btree.find_exn t.rows ~key with
  | exception Not_found -> Error (Printf.sprintf "no such key %S" key)
  | row -> (
      match Schema.index t.schema col with
      | exception Not_found -> Error (Printf.sprintf "no such column %S" col)
      | i -> (
          match add_in t ~key row i delta with
          | exception Invalid_argument e -> Error e
          | before -> Ok (before, row.(i))))

let add_int t ~key ~col delta =
  match add_int_swap t ~key ~col delta with
  | Error _ as e -> e
  | Ok (_, v) -> Ok (match v with Value.Int n -> n | v -> int_of_float (Value.as_float v))

let delete t ~key =
  match Btree.remove t.rows ~key with
  | None -> None
  | Some row ->
      t.removed <- t.removed + 1;
      indexes_on_delete t key row;
      Some row

let handle t ~key ~col =
  let h_row = Btree.find_exn t.rows ~key in
  {
    h_table = t;
    h_key = key;
    h_col = col;
    h_row;
    h_pos = Schema.index t.schema col;
    h_removed = t.removed;
  }

let handle_live h = h.h_removed = h.h_table.removed
let handle_table h = h.h_table
let handle_key h = h.h_key
let handle_col h = h.h_col

let check_live what h =
  if not (handle_live h) then invalid_arg ("Table." ^ what ^ ": stale handle")

let handle_get h =
  check_live "handle_get" h;
  h.h_row.(h.h_pos)

let handle_add h delta =
  check_live "handle_add" h;
  add_in h.h_table ~key:h.h_key h.h_row h.h_pos delta

let mem t ~key = Btree.mem t.rows ~key
let size t = Btree.size t.rows
let keys t = Btree.keys t.rows
let iter t f = Btree.iter t.rows f
let fold t ~init ~f = Btree.fold t.rows ~init ~f

let range t ~lo ~hi =
  List.map (fun (k, row) -> (k, Array.copy row)) (Btree.range t.rows ~lo ~hi)

let create_index t ~col =
  match Schema.index_opt t.schema col with
  | None -> Error (Printf.sprintf "no such column %S" col)
  | Some pos ->
      if Hashtbl.mem t.indexes col then Error (Printf.sprintf "index on %S exists" col)
      else begin
        let idx = { pos; entries = Value_map.empty } in
        Btree.iter t.rows (fun key row -> index_add idx row.(pos) key);
        Hashtbl.add t.indexes col idx;
        Ok ()
      end

let drop_index t ~col = Hashtbl.remove t.indexes col

let indexed_columns t =
  Hashtbl.fold (fun col _ acc -> col :: acc) t.indexes [] |> List.sort String.compare

let lookup_eq t ~col value =
  match Hashtbl.find_opt t.indexes col with
  | None -> None
  | Some idx ->
      Some
        (match Value_map.find_opt value idx.entries with
        | Some set -> String_set.elements set
        | None -> [])

let lookup_range t ~col ?lo ?hi () =
  match Hashtbl.find_opt t.indexes col with
  | None -> None
  | Some idx ->
      let in_lo v = match lo with None -> true | Some l -> Value.compare v l >= 0 in
      let in_hi v = match hi with None -> true | Some h -> Value.compare v h <= 0 in
      Some
        (Value_map.fold
           (fun v set acc ->
             if in_lo v && in_hi v then acc @ String_set.elements set else acc)
           idx.entries [])

let copy t =
  let rows = Btree.create () in
  Btree.iter t.rows (fun k row -> Btree.insert rows ~key:k (Array.copy row));
  let fresh =
    { name = t.name; schema = t.schema; rows; indexes = Hashtbl.create 4; removed = 0 }
  in
  List.iter
    (fun col ->
      match create_index fresh ~col with
      | Ok () -> ()
      | Error e -> failwith ("Table.copy: " ^ e))
    (indexed_columns t);
  fresh

let equal_contents a b =
  size a = size b
  && List.for_all
       (fun k ->
         match (get a ~key:k, get b ~key:k) with
         | Some ra, Some rb ->
             Array.length ra = Array.length rb
             && Array.for_all2 Value.equal ra rb
         | _ -> false)
       (keys a)
