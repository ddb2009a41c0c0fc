module Rows = Map.Make (String)

(* Rows live in an ordered map keyed by primary key: point ops are
   O(log n) and iteration comes in ascending key order. *)
type t = {
  name : string;
  schema : Schema.t;
  mutable rows : Value.t array Rows.t;
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

let create ~name schema = { name; schema; rows = Rows.empty; removed = 0 }
let name t = t.name
let schema t = t.schema

let insert t ~key row =
  if Rows.mem key t.rows then Error (Printf.sprintf "duplicate key %S" key)
  else
    match Schema.validate_row t.schema row with
    | Error e -> Error e
    | Ok () ->
        t.rows <- Rows.add key (Array.copy row) t.rows;
        Ok ()

let get t ~key = Option.map Array.copy (Rows.find_opt key t.rows)

let get_col t ~key ~col =
  match Rows.find_opt key t.rows with
  | None -> Error (Printf.sprintf "no such key %S" key)
  | Some row -> (
      match Schema.index_opt t.schema col with
      | None -> Error (Printf.sprintf "no such column %S" col)
      | Some i -> Ok row.(i))

let set_col t ~key ~col value =
  match Rows.find_opt key t.rows with
  | None -> Error (Printf.sprintf "no such key %S" key)
  | Some row -> (
      match Schema.index_opt t.schema col with
      | None -> Error (Printf.sprintf "no such column %S" col)
      | Some i -> (
          match Schema.validate_value t.schema col value with
          | Error _ as e -> e
          | Ok () ->
              let old = row.(i) in
              row.(i) <- value;
              Ok old))

(* The one body of an in-place add, by name or by handle: the value the
   add replaced. Raises [Invalid_argument] on a non-numeric column. *)
let add_in row pos delta =
  let before = row.(pos) in
  row.(pos) <- Value.add_int before delta;
  before

let add_int_swap t ~key ~col delta =
  match Rows.find key t.rows with
  | exception Not_found -> Error (Printf.sprintf "no such key %S" key)
  | row -> (
      match Schema.index t.schema col with
      | exception Not_found -> Error (Printf.sprintf "no such column %S" col)
      | i -> (
          match add_in row i delta with
          | exception Invalid_argument e -> Error e
          | before -> Ok (before, row.(i))))

let add_int t ~key ~col delta =
  match add_int_swap t ~key ~col delta with
  | Error _ as e -> e
  | Ok (_, v) -> Ok (match v with Value.Int n -> n | v -> int_of_float (Value.as_float v))

let delete t ~key =
  match Rows.find_opt key t.rows with
  | None -> None
  | Some _ as removed ->
      t.rows <- Rows.remove key t.rows;
      t.removed <- t.removed + 1;
      removed

let handle t ~key ~col =
  let h_row = Rows.find key t.rows in
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
  add_in h.h_row h.h_pos delta

let mem t ~key = Rows.mem key t.rows
let size t = Rows.cardinal t.rows
let keys t = List.map fst (Rows.bindings t.rows)
let iter t f = Rows.iter f t.rows
let fold t ~init ~f = Rows.fold (fun key row acc -> f acc key row) t.rows init

let copy t = { name = t.name; schema = t.schema; rows = Rows.map Array.copy t.rows; removed = 0 }

let equal_contents a b =
  Rows.equal
    (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 Value.equal ra rb)
    a.rows b.rows
