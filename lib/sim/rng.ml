(* The splitmix64 state lives in 8 bytes read and written as a raw
   int64: a [mutable state : int64] field would box every advance (a
   fresh 3-word block per draw). Native byte order is fine, since the
   bytes never leave the generator. *)
type t = bytes

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let r = Bytes.create 8 in
  Bytes.set_int64_ne r 0 s;
  r

let create seed = of_state (Int64.of_int seed)

let state r = Bytes.get_int64_ne r 0

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Inlined into every in-module draw, so the int64 stays unboxed from
   the state load to the float it becomes. *)
let[@inline] next r =
  let s = Int64.add (state r) golden_gamma in
  Bytes.set_int64_ne r 0 s;
  mix s

let bits64 r = next r

let fork r = of_state (next r)

(* Indexed substream: derived from the parent's *current* position and
   the index only, without advancing the parent — so shard k of a
   partitioned run gets the same stream no matter how many sibling
   substreams exist or in what order they are taken. Double-mixing with
   a distinct xor constant decorrelates adjacent indices. *)
let split r i =
  let z =
    Int64.add (state r) (Int64.mul (Int64.of_int (i + 1)) golden_gamma)
  in
  of_state (mix (Int64.logxor (mix z) 0x632BE59BD9B4E019L))

let int r bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Top bits have the best statistical quality. *)
  let v = Int64.to_int (Int64.shift_right_logical (next r) 2) in
  v mod bound

let int_in r lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int r (hi - lo + 1)

(* 53 significand bits, uniform in [0, 1). *)
let[@inline] unit_float r =
  let v = Int64.to_int (Int64.shift_right_logical (next r) 11) in
  float_of_int v /. 9007199254740992.0

let uniform r = unit_float r

let uniform_cell r cell = Float.Array.set cell 0 (unit_float r)

let float r x = unit_float r *. x

let bool r p = unit_float r < p

let[@inline] exp_draw r ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -. log1p (-. unit_float r) /. rate

let exponential r ~rate = exp_draw r ~rate

let exponential_cell r ~rate cell = Float.Array.set cell 0 (exp_draw r ~rate)

let[@inline] pareto_draw r ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then
    invalid_arg "Rng.pareto: shape and scale must be positive";
  scale /. ((1.0 -. unit_float r) ** (1.0 /. shape))

let pareto r ~shape ~scale = pareto_draw r ~shape ~scale

let pareto_cell r ~shape ~scale cell =
  Float.Array.set cell 0 (pareto_draw r ~shape ~scale)

let normal r ~mean ~stddev =
  let u1 = 1.0 -. unit_float r in
  let u2 = unit_float r in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
