type t = int

type phb =
  | Default
  | Ef
  | Af of int * int
  | Cs of int

let of_int_exn v =
  if v < 0 || v > 63 then
    invalid_arg (Printf.sprintf "Dscp.of_int_exn: %d out of range" v);
  v

let to_int d = d

let of_phb = function
  | Default -> 0
  | Ef -> 46
  | Af (cls, prec) ->
    if cls < 1 || cls > 4 || prec < 1 || prec > 3 then
      invalid_arg (Printf.sprintf "Dscp.of_phb: AF%d%d out of range" cls prec);
    (cls * 8) + (prec * 2)
  | Cs n ->
    if n < 0 || n > 7 then
      invalid_arg (Printf.sprintf "Dscp.of_phb: CS%d out of range" n);
    n * 8

let to_phb d =
  if d = 0 then Default
  else if d = 46 then Ef
  else if d land 0b111 = 0 then Cs (d lsr 3)
  else
    let cls = d lsr 3 and low = d land 0b111 in
    if cls >= 1 && cls <= 4 && low land 1 = 0 && low >= 2 && low <= 6 then
      Af (cls, low lsr 1)
    else Cs (d lsr 3)

let best_effort = 0
let ef = 46
let af cls prec = of_phb (Af (cls, prec))
let cs n = of_phb (Cs n)

(* [to_phb] materializes a PHB constructor per call; the two per-packet
   projections below compute the same answers on raw bits instead. For
   every codepoint except EF the EXP value is the class selector bits
   (Default = CS0, AF's class = its top three bits, CS trivially), so
   the whole table collapses to one test and a shift. *)
let to_exp d = if d = 46 then 5 else d lsr 3

let of_exp e =
  if e < 0 || e > 7 then
    invalid_arg (Printf.sprintf "Dscp.of_exp: %d out of range" e);
  match e with
  | 0 -> best_effort
  | 5 -> ef
  | 1 | 2 | 3 | 4 -> af e 1
  | n -> cs n

(* Only a well-formed AF codepoint carries a drop precedence; the bit
   tests mirror [to_phb]'s AF validity check (EF's low bits fail the
   even-and-in-range test, so it needs no special case). *)
let drop_precedence d =
  let cls = d lsr 3 and low = d land 0b111 in
  if cls >= 1 && cls <= 4 && low land 1 = 0 && low >= 2 && low <= 6
  then low lsr 1
  else 1

let pp ppf d =
  match to_phb d with
  | Default -> Format.pp_print_string ppf "BE"
  | Ef -> Format.pp_print_string ppf "EF"
  | Af (c, p) -> Format.fprintf ppf "AF%d%d" c p
  | Cs n -> Format.fprintf ppf "CS%d" n

let equal = Int.equal
