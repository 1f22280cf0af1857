type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 r =
  r.state <- Int64.add r.state golden_gamma;
  mix r.state

let fork r = { state = bits64 r }

(* Indexed substream: derived from the parent's *current* position and
   the index only, without advancing the parent — so shard k of a
   partitioned run gets the same stream no matter how many sibling
   substreams exist or in what order they are taken. Double-mixing with
   a distinct xor constant decorrelates adjacent indices. *)
let split r i =
  let z = Int64.add r.state (Int64.mul (Int64.of_int (i + 1)) golden_gamma) in
  { state = mix (Int64.logxor (mix z) 0x632BE59BD9B4E019L) }

let int r bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Top bits have the best statistical quality. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 r) 2) in
  v mod bound

let int_in r lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int r (hi - lo + 1)

let uniform r =
  (* 53 significand bits, uniform in [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 r) 11) in
  float_of_int v /. 9007199254740992.0

let float r x = uniform r *. x

let bool r p = uniform r < p

let exponential r ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -. log1p (-. uniform r) /. rate

let pareto r ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then
    invalid_arg "Rng.pareto: shape and scale must be positive";
  scale /. ((1.0 -. uniform r) ** (1.0 /. shape))

let normal r ~mean ~stddev =
  let u1 = 1.0 -. uniform r and u2 = uniform r in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
