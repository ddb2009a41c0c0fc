(* Argument converters shared by the command-line tools. Out-of-range
   values are usage errors that name the flag, never exceptions from deep
   inside the run. *)

open Cmdliner

let int_at_least lo ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1 ~what:"a positive integer"
let non_negative_int = int_at_least 0 ~what:"a non-negative integer"

let float_where ok ~what =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let probability = float_where (fun p -> p >= 0. && p <= 1.) ~what:"a probability in [0,1]"

let non_negative_float =
  float_where (fun x -> Float.is_finite x && x >= 0.) ~what:"a non-negative number"

let positive_float = float_where (fun x -> Float.is_finite x && x > 0.) ~what:"a positive number"
