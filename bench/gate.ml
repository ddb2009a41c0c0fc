(* The judge of the gated bench experiments. A row names one fresh number,
   the rule it must satisfy and the fewest host cores on which the rule
   means anything; [judge] applies a list of rows to one measurement and
   its committed baseline. It measures nothing itself, so tests can pin
   every rule's boundary. *)

type direction = Higher_is_better | Lower_is_better

type rule =
  | Equal  (** exactly the baseline: numbers every host reproduces *)
  | Within_2x of direction  (** no worse than 2x the baseline in the field's direction *)
  | At_least of float * string  (** at least k times another fresh number *)
  | Below of float * string  (** strictly below k times another fresh number *)

type row = { field : string; rule : rule; min_cores : int }

let row ?(min_cores = 1) field rule = { field; rule; min_cores }

type verdict = Pass of string | Skip of string | Fail of string

(* A rule's comparison, its symbol, what the bound is, and the bound that
   the reference number [r] sets. *)
let comparison = function
  | Equal -> (( = ), "=", "baseline", Fun.id)
  | Within_2x Higher_is_better -> (( >= ), ">=", "baseline / 2", fun r -> r /. 2.)
  | Within_2x Lower_is_better -> (( <= ), "<=", "2 x baseline", fun r -> r *. 2.)
  | At_least (k, other) -> (( >= ), ">=", Printf.sprintf "%g x %s" k other, fun r -> k *. r)
  | Below (k, other) -> (( < ), "<", Printf.sprintf "%g x %s" k other, fun r -> k *. r)

let judge ~host_cores ~baseline ~fresh rows =
  let lookup numbers source name =
    match List.assoc_opt name numbers with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing from %s" name source)
  in
  let base = lookup baseline "baseline" and now = lookup fresh "fresh numbers" in
  let ( let* ) = Result.bind in
  let verdict { field; rule; min_cores } =
    let holds, op, what, bound = comparison rule in
    if host_cores < min_cores then
      Ok
        (Skip
           (Printf.sprintf "%s %s %s: not armed on a %d-core host (needs %d cores)" field op
              what host_cores min_cores))
    else
      let* v = now field in
      let* r =
        match rule with
        | Equal | Within_2x _ -> base field
        | At_least (_, other) | Below (_, other) -> now other
      in
      let claim = Printf.sprintf "%s = %.12g, needs %s %s = %.12g" field v op what (bound r) in
      Ok (if holds v (bound r) then Pass claim else Fail claim)
  in
  List.map (fun row -> match verdict row with Ok v -> v | Error missing -> Fail missing) rows
