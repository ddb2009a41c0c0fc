type t = int

let of_int i =
  if i < 0 then invalid_arg "Address.of_int: negative";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t
let to_string t = "site" ^ string_of_int t
let pp ppf t = Format.pp_print_string ppf (to_string t)

module Set = Set.Make (Int)
module Map = Map.Make (Int)
