(* Every rule of the bench gate at its boundary, judged without measuring
   anything. The boundaries are the comparisons the gated experiments have
   always made: a 2x row fails on [fresh *. 2. < base] when higher is
   better and on [fresh > base *. 2.] when lower is better, "at least k x"
   passes at equality and "strictly below k x" fails there. The numbers
   come from the committed baselines. *)

open Gate

let ups = row "delay_updates_per_sec" (Within_2x Higher_is_better)
let msgs = row "mixed_msgs_per_update" (Within_2x Lower_is_better)
let applied = row "parallel_seq_applied" Equal
let immediate = "immediate_updates_per_sec_n1000"
let epoch = row "epoch_updates_per_sec_n1000" (At_least (3., immediate))
let full = "scale_full_msgs_per_update_n1000"
let sharded = row "scale_sharded_msgs_per_update_n1000" (Below (0.25, full))
let par4 = row ~min_cores:4 "parallel_par4_updates_per_sec" (Within_2x Higher_is_better)
let one row v = [ (row.field, v) ]

(* One row judged alone; the verdict must be [expected] and start with
   the name [mentions] (the row's field unless given). *)
let case ?(cores = 1) ?(baseline = []) ?mentions label row ~fresh expected =
  let mentions = Option.value mentions ~default:row.field in
  Alcotest.test_case label `Quick (fun () ->
      let kind, text =
        match judge ~host_cores:cores ~baseline ~fresh [ row ] with
        | [ Pass text ] -> ("pass", text)
        | [ Skip text ] -> ("skip", text)
        | [ Fail text ] -> ("fail", text)
        | _ -> Alcotest.fail "one row, one verdict"
      in
      Alcotest.(check string) text expected kind;
      Alcotest.(check bool) ("starts with " ^ mentions) true
        (String.starts_with ~prefix:mentions text))

let boundaries =
  let ups_base = one ups 1053796. and msgs_base = one msgs 1.175 in
  let applied_base = one applied 33220. and par4_base = one par4 25939. in
  let epoch_at e = [ (epoch.field, e); (immediate, 377.459) ] in
  let sharded_at s = [ (sharded.field, s); (full, 601.764) ] in
  [
    case "half the baseline passes" ups ~baseline:ups_base ~fresh:(one ups 526898.) "pass";
    case "just below half fails" ups ~baseline:ups_base
      ~fresh:(one ups (Float.pred 526898.)) "fail";
    case "twice the baseline passes" msgs ~baseline:msgs_base
      ~fresh:(one msgs (2. *. 1.175)) "pass";
    case "just above twice fails" msgs ~baseline:msgs_base
      ~fresh:(one msgs (Float.succ (2. *. 1.175))) "fail";
    case "the baseline itself passes" applied ~baseline:applied_base
      ~fresh:(one applied 33220.) "pass";
    case "one below the baseline fails" applied ~baseline:applied_base
      ~fresh:(one applied 33219.) "fail";
    case "one above the baseline fails" applied ~baseline:applied_base
      ~fresh:(one applied 33221.) "fail";
    case "at least k x passes at equality" epoch ~fresh:(epoch_at (3. *. 377.459)) "pass";
    case "at least k x fails just below" epoch
      ~fresh:(epoch_at (Float.pred (3. *. 377.459))) "fail";
    case "strictly below k x fails at equality" sharded
      ~fresh:(sharded_at (0.25 *. 601.764)) "fail";
    case "strictly below k x passes just below" sharded
      ~fresh:(sharded_at (Float.pred (0.25 *. 601.764))) "pass";
    case "a 4-core row is skipped at 3 cores" par4 ~cores:3 ~baseline:par4_base
      ~fresh:(one par4 1.) "skip";
    case "a 4-core row is judged at 4 cores" par4 ~cores:4 ~baseline:par4_base
      ~fresh:(one par4 1.) "fail";
    case "a field absent from the baseline fails" ups
      ~baseline:[ ("delay_tracing_updates_per_sec", 646187.) ]
      ~fresh:(one ups 1053796.) "fail";
    case "an absent fresh reference fails" epoch ~mentions:immediate
      ~fresh:(one epoch 18277.359) "fail";
  ]

let test_rows_in_order () =
  match
    judge ~host_cores:2
      ~baseline:(one ups 1053796. @ one par4 25939.)
      ~fresh:(one ups 1. @ one par4 1.)
      [ par4; ups ]
  with
  | [ Skip _; Fail _ ] -> ()
  | _ -> Alcotest.fail "one verdict per row, in row order"

let suites =
  [
    ( "bench.gate",
      boundaries
      @ [ Alcotest.test_case "one verdict per row, in row order" `Quick test_rows_in_order ] );
  ]
