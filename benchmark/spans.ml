(* Wall-clock spans recorded by the benchmark around its calls into the
   system, kept in memory and written out as JSONL when the run ends.
   A span's self time is its length minus its children's lengths. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  start_ns : int;
  mutable stop_ns : int;
  mutable fields : (string * float) list;
}

type t = { mutable rev : span list; mutable next : int }

let create () = { rev = []; next = 0 }

let add t ~parent name ~start_ns ~stop_ns =
  let s = { id = t.next; parent; name; start_ns; stop_ns; fields = [] } in
  t.next <- t.next + 1;
  t.rev <- s :: t.rev;
  s

let start t ~parent name = add t ~parent name ~start_ns:(now_ns ()) ~stop_ns:(-1)
let stop s = s.stop_ns <- now_ns ()
let field s key v = s.fields <- (key, v) :: s.fields

let within t ~parent name f =
  let s = start t ~parent name in
  let r = f s in
  stop s;
  r

let duration s = s.stop_ns - s.start_ns

let write t path =
  let spans = List.rev t.rev in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let self_ns s =
    List.fold_left (fun acc c -> acc - duration c) (duration s) (Hashtbl.find_all children s.id)
  in
  let oc = open_out path in
  List.iter
    (fun s ->
      let fields =
        List.rev_map (fun (k, v) -> (k, Avdb_obs.Json.Float v)) s.fields
      in
      let line =
        Avdb_obs.Json.(
          Obj
            ([
               ("id", Int s.id);
               ("parent", if s.parent < 0 then Null else Int s.parent);
               ("name", Str s.name);
               ("start_ns", Int s.start_ns);
               ("dur_ns", Int (duration s));
               ("self_ns", Int (self_ns s));
             ]
            @ fields))
      in
      output_string oc (Avdb_obs.Json.to_string line);
      output_char oc '\n')
    spans;
  close_out oc
