type column = { name : string; ty : Value.ty }

type t = { cols : column array; by_name : (string, int) Hashtbl.t }

let create cols =
  if cols = [] then invalid_arg "Schema.create: empty column list";
  let by_name = Hashtbl.create (List.length cols) in
  List.iteri
    (fun i { name; _ } ->
      if Hashtbl.mem by_name name then
        invalid_arg ("Schema.create: duplicate column " ^ name);
      Hashtbl.add by_name name i)
    cols;
  { cols = Array.of_list cols; by_name }

let columns t = Array.to_list t.cols
let arity t = Array.length t.cols
let index t name = Hashtbl.find t.by_name name
let index_opt t name = Hashtbl.find_opt t.by_name name
let column_ty t name = t.cols.(index t name).ty

let validate_value t name v =
  let ty = column_ty t name in
  if Value.type_of v = ty then Ok ()
  else Error (Printf.sprintf "column %S expects %s" name (Value.ty_name ty))

let validate_row t row =
  if Array.length row <> arity t then
    Error
      (Printf.sprintf "row arity %d, schema arity %d" (Array.length row) (arity t))
  else begin
    let err = ref None in
    Array.iteri
      (fun i v ->
        if !err = None && Value.type_of v <> t.cols.(i).ty then
          err :=
            Some
              (Printf.sprintf "column %s expects %s, got %s" t.cols.(i).name
                 (Value.ty_name t.cols.(i).ty)
                 (Value.ty_name (Value.type_of v))))
      row;
    match !err with None -> Ok () | Some e -> Error e
  end

let pp ppf t =
  Format.fprintf ppf "@[<h>(%a)@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf { name; ty } -> Format.fprintf ppf "%s:%s" name (Value.ty_name ty)))
    (columns t)
