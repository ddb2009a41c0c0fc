(* Order statistics over measured samples. Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so the
   spreads this program prints are the ones an external script computes
   from the same values. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

let quartiles values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an exact histogram [(value, count)] sorted
   by value: the smallest value with at least [p] of the mass at or
   below it. *)
let histogram_percentile hist p =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  if total = 0 then 0
  else
    let rank = Int.max 1 (int_of_float (Float.ceil (p *. float_of_int total))) in
    let rec go seen = function
      | [] -> 0
      | (v, c) :: rest -> if seen + c >= rank then v else go (seen + c) rest
    in
    go 0 hist
