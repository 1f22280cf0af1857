type t = { network : Ipv4.t; length : int }

let mask_of_length len =
  if len = 0 then 0 else 0xFFFF_FFFF lsl (32 - len) land 0xFFFF_FFFF

let make addr len =
  if len < 0 || len > 32 then
    invalid_arg (Printf.sprintf "Prefix.make: length %d out of range" len);
  let canonical = Ipv4.to_int addr land mask_of_length len in
  { network = Ipv4.of_int32_exn canonical; length = len }

let network p = p.network
let length p = p.length

let of_string s =
  match String.index_opt s '/' with
  | None ->
    Result.map (fun a -> make a 32) (Ipv4.of_string s)
  | Some i ->
    let addr_s = String.sub s 0 i in
    let len_s = String.sub s (i + 1) (String.length s - i - 1) in
    begin match Ipv4.of_string addr_s, int_of_string_opt len_s with
    | Ok a, Some len when len >= 0 && len <= 32 -> Ok (make a len)
    | _ -> Error (Printf.sprintf "Prefix.of_string: invalid prefix %S" s)
    end

let of_string_exn s =
  match of_string s with
  | Ok p -> p
  | Error msg -> invalid_arg msg

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.network) p.length

let compare p q =
  match Ipv4.compare p.network q.network with
  | 0 -> Int.compare p.length q.length
  | c -> c

let equal p q = compare p q = 0

let mem a p = Ipv4.to_int a land mask_of_length p.length = Ipv4.to_int p.network

let subsumes p q = p.length <= q.length && mem q.network p

let overlaps p q = subsumes p q || subsumes q p

let first p = p.network

let size p = 1 lsl (32 - p.length)

let last p = Ipv4.add p.network (size p - 1)

let bit p i =
  if i < 0 || i > 31 then
    invalid_arg (Printf.sprintf "Prefix.bit: index %d out of range" i);
  Ipv4.to_int p.network land (1 lsl (31 - i)) <> 0

let split p =
  if p.length = 32 then None
  else
    let len = p.length + 1 in
    let lo = make p.network len in
    let hi = make (Ipv4.add p.network (1 lsl (32 - len))) len in
    Some (lo, hi)

let subnets p len =
  if len < p.length || len > 32 then
    invalid_arg
      (Printf.sprintf "Prefix.subnets: length %d invalid for %s" len
         (to_string p));
  let count = 1 lsl (len - p.length) in
  if count > 1 lsl 20 then
    invalid_arg "Prefix.subnets: enumeration too large";
  let step = 1 lsl (32 - len) in
  List.init count (fun i -> make (Ipv4.add p.network (i * step)) len)

let nth_host p i =
  if i < 0 || i >= size p then
    invalid_arg
      (Printf.sprintf "Prefix.nth_host: index %d outside %s" i (to_string p));
  Ipv4.add p.network i

let default = make Ipv4.any 0
