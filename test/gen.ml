(* Shared qcheck plumbing for every suite.

   [to_alcotest] replaces QCheck_alcotest.to_alcotest everywhere: it runs
   each property from one explicit seed so failures replay exactly, and
   prints that seed on failure. Override with QCHECK_SEED=<n> to explore
   (CI keeps the default for reproducible runs).

   The generators below are the ones several suites share: random storage
   values, WAL records, single-key transaction scripts and per-site update
   streams. Keep suite-specific generators in their own files. So is the
   exact allocation count the footprint cases measure with. *)

open Avdb_store

let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 0xC0FFEE

let to_alcotest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  ( name,
    speed,
    fun x ->
      try run x
      with e ->
        Printf.eprintf "\n[qcheck] property %S failed; replay with QCHECK_SEED=%d\n%!" name
          seed;
        raise e )

(* --- allocation --- *)

(* Bytes allocated so far by this domain. [Gc.allocated_bytes] reads the
   current minor heap short on OCaml 5.1, by up to about 1.8 MB, so count
   minor words exactly and add what went straight to the major heap. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Bytes [f ()] allocates, the readings' own allocation taken off: exact
   for a small [f], down to 0. *)
let allocated f =
  let measure f =
    Gc.minor ();
    let b0 = allocated_bytes () in
    f ();
    allocated_bytes () -. b0
  in
  measure f -. measure ignore

(* --- storage values --- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) int;
        map (fun s -> Value.Str s) (string_size (int_range 0 10));
        map (fun b -> Value.Bool b) bool;
      ])

let value = QCheck.make ~print:(Format.asprintf "%a" Value.pp) value_gen

(* --- WAL records --- *)

let wal_record_gen =
  QCheck.Gen.(
    let str = string_size (int_range 0 8) in
    oneof
      [
        map (fun t -> Wal.Begin t) nat;
        map (fun t -> Wal.Commit t) nat;
        map (fun t -> Wal.Abort t) nat;
        map
          (fun (txid, table, key, row) -> Wal.Insert { txid; table; key; row = Array.of_list row })
          (quad nat str str (list_size (int_range 0 4) value_gen));
        map
          (fun ((txid, table), (key, col), (before, after)) ->
            Wal.Update { txid; table; key; col; before; after })
          (triple (pair nat str) (pair str str) (pair value_gen value_gen));
        map
          (fun ((txid, table), (key, col), (before, after)) ->
            Wal.Apply { txid; table; key; col; before; after })
          (triple (pair nat str) (pair str str) (pair value_gen value_gen));
        map
          (fun (txid, table, key, row) -> Wal.Delete { txid; table; key; row = Array.of_list row })
          (quad nat str str (list_size (int_range 0 4) value_gen));
      ])

let wal_record = QCheck.make ~print:Wal.encode_record wal_record_gen

(* --- single-key transaction scripts ---

   (key index, delta, commit?) triples: each step runs one transaction
   against key "k<i>", inserting the row on first touch, adding [delta]
   to its amount column, then committing or aborting. *)

let txn_script ?(max_len = 60) ?(keys = 10) () =
  QCheck.(
    list_of_size
      (Gen.int_range 0 max_len)
      (triple (int_bound keys) (int_range (-20) 20) bool))

(* --- per-site update streams ---

   (site index, delta) pairs for cluster-level properties: which site
   submits the next update and by how much. Zero deltas are included;
   consumers that cannot submit 0 must filter. *)

let site_ops ?(n_sites = 3) ?(min_len = 1) ?(max_len = 60) ?(max_delta = 30) () =
  QCheck.(
    list_of_size
      (Gen.int_range min_len max_len)
      (pair (int_bound (n_sites - 1)) (int_range (-max_delta) max_delta)))
