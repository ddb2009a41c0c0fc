(* Layer replays: each times one layer's public functions in isolation,
   driven by the workload's own inputs (its items, deltas and sites), and
   reports wall ns and minor words per operation. The median of three
   passes is reported; the first pass also warms the code. *)

module W = Workloads
module Time = Avdb_sim.Time
module Engine = Avdb_sim.Engine

let passes = 3

type cost = { ns : float; words : float }

(* [prepare ()] builds fresh state outside the timed region and returns
   the timed body, which performs [ops] operations. *)
let measure ~ops prepare =
  let one () =
    let body = prepare () in
    Gc.minor ();
    let w0 = Gc.minor_words () in
    let t0 = Spans.now_ns () in
    body ();
    let t1 = Spans.now_ns () in
    let words = Gc.minor_words () -. w0 in
    (float_of_int (t1 - t0) /. float_of_int ops, words /. float_of_int ops)
  in
  let samples = List.init passes (fun _ -> one ()) in
  { ns = Stats.median (List.map fst samples); words = Stats.median (List.map snd samples) }

let input inputs k = inputs.W.packed.{k mod W.length inputs}

(* Engine.schedule + run: a chain of events, each arming the next, as the
   runner drip-feeds updates. *)
let event ~ops =
  measure ~ops (fun () ->
      let engine = Engine.create ~seed:1 () in
      let step = Time.of_us 10 in
      let rec arm k = if k < ops then ignore (Engine.schedule engine ~delay:step (fun () -> arm (k + 1))) in
      fun () ->
        arm 0;
        ignore (Engine.run engine))

(* The Delay path's AV operations: mint for a positive delta, hold plus
   consume for a negative one. *)
let av_op ~ops inputs =
  measure ~ops (fun () ->
      let av = Avdb_av.Av_table.create () in
      Array.iter (fun item -> Avdb_av.Av_table.define av ~item ~volume:(1 lsl 40)) inputs.W.items;
      fun () ->
        for k = 0 to ops - 1 do
          let p = input inputs k in
          let item = inputs.W.items.(W.item_of p) and delta = W.delta_of p in
          if delta >= 0 then ignore (Avdb_av.Av_table.mint av ~item delta)
          else begin
            ignore (Avdb_av.Av_table.hold av ~item (-delta));
            ignore (Avdb_av.Av_table.consume av ~item (-delta))
          end
        done)

let stock_db inputs =
  let open Avdb_store in
  let db = Database.create () in
  let schema = Schema.create [ { Schema.name = "amount"; ty = Value.Tint } ] in
  let table = Database.create_table db ~name:"stock" schema in
  Array.iteri
    (fun i item -> ignore (Table.insert table ~key:item [| Value.Int inputs.W.initial.(i) |]))
    inputs.W.items;
  db

(* The autocommit row-store write every applied update makes. *)
let apply ~ops inputs =
  measure ~ops (fun () ->
      let db = stock_db inputs in
      fun () ->
        for k = 0 to ops - 1 do
          let p = input inputs k in
          ignore
            (Avdb_store.Database.apply_int db ~table:"stock"
               ~key:inputs.W.items.(W.item_of p)
               ~col:"amount" (W.delta_of p))
        done)

(* Encoding the WAL records a run actually wrote ([records] comes from a
   site's log after a repetition). *)
let wal_encode ~ops records =
  let records = Array.of_list records in
  measure ~ops (fun () ->
      let buf = Buffer.create 256 in
      fun () ->
        for k = 0 to ops - 1 do
          Buffer.clear buf;
          Avdb_store.Wal.encode_record_into buf records.(k mod Array.length records)
        done)

(* A standalone network between the workload's sites (at most 16): one
   send per input plus its delivery. *)
let send ~ops inputs ~n_sites =
  let nodes = Int.max 2 (Int.min 16 n_sites) in
  measure ~ops (fun () ->
      let engine = Engine.create ~seed:1 () in
      let net = Avdb_net.Network.create ~engine () in
      for i = 0 to nodes - 1 do
        Avdb_net.Network.add_node net (Avdb_net.Address.of_int i) (fun ~src:_ _ -> ())
      done;
      fun () ->
        for k = 0 to ops - 1 do
          let src = W.site_of (input inputs k) mod nodes in
          Avdb_net.Network.send net ~src:(Avdb_net.Address.of_int src)
            ~dst:(Avdb_net.Address.of_int ((src + 1) mod nodes))
            k
        done;
        ignore (Engine.run engine))

(* A standalone request/response round trip through [Rpc]. *)
let rpc ~ops =
  measure ~ops (fun () ->
      let engine = Engine.create ~seed:1 () in
      let rpc = Avdb_net.Rpc.create ~engine () in
      let a = Avdb_net.Address.of_int 0 and b = Avdb_net.Address.of_int 1 in
      (* the caller must be a node too, to receive the responses *)
      Avdb_net.Rpc.serve rpc a ~handler:(fun ~src:_ ~span:_ _ ~reply:_ -> ()) ();
      Avdb_net.Rpc.serve rpc b ~handler:(fun ~src:_ ~span:_ req ~reply -> reply req) ();
      fun () ->
        for k = 0 to ops - 1 do
          Avdb_net.Rpc.call rpc ~src:a ~dst:b k (fun (_ : (int, Avdb_net.Rpc.error) Stdlib.result) -> ());
          if k land 1023 = 1023 then ignore (Engine.run engine)
        done;
        ignore (Engine.run engine))

(* Sketch.add over the commit latencies (ms) the run observed. *)
let sketch_add ~ops latencies_ms =
  let values = if latencies_ms = [||] then [| 0. |] else latencies_ms in
  measure ~ops (fun () ->
      let sketch = Avdb_metrics.Sketch.create () in
      fun () ->
        for k = 0 to ops - 1 do
          Avdb_metrics.Sketch.add sketch values.(k mod Array.length values)
        done)
