(* Heterogeneous read requirements, the other half of the paper's title:
   a retailer wants instant (possibly stale) answers, a procurement system
   wants the authoritative base value. Both coexist on one cluster.

   Run with: dune exec examples/heterogeneous_reads.exe *)

open Avdb_sim
open Avdb_net
open Avdb_core

let () =
  let config =
    {
      Config.default with
      Config.products = [ Product.regular "productA" ~initial_amount:100 ];
      sync_interval = Some (Time.of_ms 500.);
      (* a WAN-ish network makes the cost difference visible *)
      latency = Latency.Constant (Time.of_ms 25.);
      rpc_timeout = Time.of_ms 500.;
    }
  in
  let cluster = Cluster.create config in
  let retailer = Cluster.site cluster 1 in
  let engine = Cluster.engine cluster in

  (* The retailer sells 30 units; the write is AV-local. *)
  Site.submit_update retailer ~item:"productA" ~delta:(-30) (fun r ->
      Format.printf "retailer write      -> %a@." Update.pp_result r);
  (* Run only past the write, not past the 500ms lazy-sync flush. *)
  Cluster.run ~until:(Time.of_ms 100.) cluster;

  (* Local read: free, immediate, read-your-writes. *)
  Printf.printf "local read at site1 -> %d units (0 messages, 0 latency)\n"
    (Option.value ~default:0 (Site.read_local retailer ~item:"productA"));

  (* The base has not heard about the sale yet. *)
  Printf.printf "local read at base  -> %d units (stale until the lazy sync)\n"
    (Option.value ~default:0 (Site.read_local (Cluster.base_site cluster) ~item:"productA"));

  (* Authoritative read from the retailer: one 2x25ms round trip to the
     maker's books - the view procurement reconciles against. *)
  let started = Engine.now engine in
  Site.read_authoritative retailer ~item:"productA" (fun result ->
      let elapsed = Time.diff (Engine.now engine) started in
      match result with
      | Ok (Some amount) ->
          Printf.printf "authoritative read  -> %d units per the maker's books (1 correspondence, %s)\n"
            amount (Time.to_string elapsed)
      | Ok None -> print_endline "authoritative read  -> item unknown at base"
      | Error reason ->
          Format.printf "authoritative read  -> failed (%a)@." Update.pp_reason reason);
  Cluster.run cluster;

  (* A bigger sale forces an AV transfer - watch it in the trace below. *)
  Site.submit_update retailer ~item:"productA" ~delta:(-20) (fun r ->
      Format.printf "second write        -> %a@." Update.pp_result r);
  Cluster.run cluster;

  (* After the lazy sync the local read at the base is fresh again. *)
  Cluster.flush_all_syncs cluster;
  Printf.printf "base after sync     -> %d units\n"
    (Option.value ~default:0 (Site.read_local (Cluster.base_site cluster) ~item:"productA"));
  Printf.printf "total correspondences: %d\n"
    (Cluster.total_correspondences cluster);

  print_endline
    "\nThe trade: instant-but-lagging local reads for the retailer's\n\
     real-time requirement, a round trip to the maker's books for the\n\
     reconciliation requirement - one system serving both (assurance).";

  (* Show the spans of what actually happened under the hood. *)
  print_endline "\nSpans of the run:";
  List.iter (fun s -> Format.printf "  %a@." Avdb_obs.Span.pp s) (Cluster.spans cluster)
