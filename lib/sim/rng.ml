(* The four xoshiro words live in one 32-byte buffer, read and written as
   unboxed 64-bit lanes, so a draw allocates nothing but a boxed result:
   mutable [int64] record fields would box every word on every store. *)
type t = Bytes.t

let get = Bytes.get_int64_le
let set = Bytes.set_int64_le

(* splitmix64: used to expand a seed into the four xoshiro words, and to
   derive child seeds in [split]. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t (8 * i) (splitmix64 state)
  done;
  t

let create seed = of_seed (Int64.of_int seed)
let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every draw below, so its result stays unboxed. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 8 (logxor s1 s2);
  set t 16 (logxor s2 (shift_left s1 17));
  set t 24 (rotl s3 45);
  result

let bits64 t = next t
let split t = of_seed (next t)
let copy = Bytes.copy

(* Rejection sampling on the top bits to stay unbiased. *)
let rec below t bound =
  let bound64 = Int64.of_int bound in
  let r = Int64.shift_right_logical (next t) 1 in
  let v = Int64.rem r bound64 in
  if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then below t bound
  else Int64.to_int v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 uniform mantissa bits in [0,1). *)
let[@inline] unit_float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let[@inline] scaled t bound =
  if not (Float.is_finite bound) || bound < 0. then invalid_arg "Rng.float";
  unit_float t *. bound

let float t bound = scaled t bound

let float_in t lo hi =
  if lo > hi then invalid_arg "Rng.float_in: empty range";
  lo +. scaled t (hi -. lo)

let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = unit_float t < Float.min 1.0 (Float.max 0.0 p)

let exponential t mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let gaussian t ~mean ~stddev =
  let u1 = 1.0 -. unit_float t in
  let u2 = unit_float t in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | l -> List.nth l (int t (List.length l))
