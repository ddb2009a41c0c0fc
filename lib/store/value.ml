type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = Tint | Tfloat | Tstr | Tbool

let type_of = function
  | Int _ -> Tint
  | Float _ -> Tfloat
  | Str _ -> Tstr
  | Bool _ -> Tbool

let ty_name = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstr -> "string"
  | Tbool -> "bool"

let equal a b =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | (Int _ | Float _ | Str _ | Bool _), _ -> false

let add_int v d =
  match v with
  | Int n -> Int (n + d)
  | Float x -> Float (x +. float_of_int d)
  | Str _ | Bool _ ->
      invalid_arg (Printf.sprintf "Value.add_int: non-numeric %s" (ty_name (type_of v)))

let as_int = function
  | Int n -> n
  | v -> invalid_arg (Printf.sprintf "Value.as_int: %s" (ty_name (type_of v)))

let as_float = function
  | Int n -> float_of_int n
  | Float x -> x
  | v -> invalid_arg (Printf.sprintf "Value.as_float: %s" (ty_name (type_of v)))

let as_string = function
  | Str s -> s
  | v -> invalid_arg (Printf.sprintf "Value.as_string: %s" (ty_name (type_of v)))

let as_bool = function
  | Bool b -> b
  | v -> invalid_arg (Printf.sprintf "Value.as_bool: %s" (ty_name (type_of v)))

let pp ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Float x -> Format.fprintf ppf "%g" x
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b

let to_string v = Format.asprintf "%a" pp v

(* Encoding: a type tag, ':', then the payload. Strings are hex-escaped so
   the encoding stays single-line regardless of content. *)
let hex_decode s =
  if String.length s mod 2 <> 0 then Error "odd hex length"
  else
    try
      Ok
        (String.init (String.length s / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> Error "bad hex"

let hex_digit = "0123456789abcdef"

let encode_into buf = function
  | Int n ->
      Buffer.add_string buf "i:";
      Buffer.add_string buf (string_of_int n)
  | Float x ->
      Buffer.add_string buf "f:";
      Buffer.add_string buf (Printf.sprintf "%h" x)
  | Str s ->
      Buffer.add_string buf "s:";
      String.iter
        (fun c ->
          let b = Char.code c in
          Buffer.add_char buf hex_digit.[b lsr 4];
          Buffer.add_char buf hex_digit.[b land 0xf])
        s
  | Bool b ->
      Buffer.add_string buf "b:";
      Buffer.add_string buf (string_of_bool b)

let encode v =
  match v with
  | Int n -> "i:" ^ string_of_int n
  | Bool b -> "b:" ^ string_of_bool b
  | Float _ | Str _ ->
      let buf = Buffer.create 24 in
      encode_into buf v;
      Buffer.contents buf

let decode s =
  match String.index_opt s ':' with
  | None -> Error ("Value.decode: missing tag in " ^ s)
  | Some i -> (
      let tag = String.sub s 0 i in
      let body = String.sub s (i + 1) (String.length s - i - 1) in
      match tag with
      | "i" -> (
          match int_of_string_opt body with
          | Some n -> Ok (Int n)
          | None -> Error ("bad int: " ^ body))
      | "f" -> (
          match float_of_string_opt body with
          | Some x -> Ok (Float x)
          | None -> Error ("bad float: " ^ body))
      | "s" -> Result.map (fun s -> Str s) (hex_decode body)
      | "b" -> (
          match bool_of_string_opt body with
          | Some b -> Ok (Bool b)
          | None -> Error ("bad bool: " ^ body))
      | t -> Error ("unknown tag: " ^ t))
