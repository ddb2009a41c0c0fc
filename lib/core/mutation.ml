type t =
  | Lossy_sync
  | Double_deposit
  | Unilateral_abort
  | Stale_reads
  | Forget_own_writes
  | Epoch_double_seal
  | Epoch_drop_intent

let all =
  [
    Lossy_sync;
    Double_deposit;
    Unilateral_abort;
    Stale_reads;
    Forget_own_writes;
    Epoch_double_seal;
    Epoch_drop_intent;
  ]

let name = function
  | Lossy_sync -> "lossy-sync"
  | Double_deposit -> "double-deposit"
  | Unilateral_abort -> "unilateral-abort"
  | Stale_reads -> "stale-reads"
  | Forget_own_writes -> "forget-own-writes"
  | Epoch_double_seal -> "epoch-double-seal"
  | Epoch_drop_intent -> "epoch-drop-intent"

let of_name s =
  match List.find_opt (fun m -> name m = s) all with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown mutation %S (expected one of: %s)" s
           (String.concat ", " (List.map name all)))

(* One mutable cell per flag rather than a set: [enabled] sits on hot
   paths (sync receive, local reads) and must stay a load + branch. *)
let lossy_sync = ref false
let double_deposit = ref false
let unilateral_abort = ref false
let stale_reads = ref false
let forget_own_writes = ref false
let epoch_double_seal = ref false
let epoch_drop_intent = ref false

let cell = function
  | Lossy_sync -> lossy_sync
  | Double_deposit -> double_deposit
  | Unilateral_abort -> unilateral_abort
  | Stale_reads -> stale_reads
  | Forget_own_writes -> forget_own_writes
  | Epoch_double_seal -> epoch_double_seal
  | Epoch_drop_intent -> epoch_drop_intent

let enable m = cell m := true
let disable m = cell m := false
let enabled m = !(cell m)
let reset () = List.iter disable all
