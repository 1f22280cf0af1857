type t = int

let max_value = 0xFFFF_FFFF

let of_int32_exn v =
  if v < 0 || v > max_value then
    invalid_arg (Printf.sprintf "Ipv4.of_int32_exn: %d out of range" v);
  v

let to_int a = a

let of_octets a b c d =
  let check o =
    if o < 0 || o > 255 then
      invalid_arg (Printf.sprintf "Ipv4.of_octets: octet %d out of range" o)
  in
  check a; check b; check c; check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_octets a =
  ((a lsr 24) land 0xFF, (a lsr 16) land 0xFF, (a lsr 8) land 0xFF, a land 0xFF)

let of_string s =
  let fail () = Error (Printf.sprintf "Ipv4.of_string: invalid address %S" s) in
  match String.split_on_char '.' s with
  | [a; b; c; d] ->
    let octet o =
      if o = "" || String.length o > 3 then None
      else
        match int_of_string_opt o with
        | Some v when v >= 0 && v <= 255 -> Some v
        | Some _ | None -> None
    in
    begin match octet a, octet b, octet c, octet d with
    | Some a, Some b, Some c, Some d -> Ok (of_octets a b c d)
    | _ -> fail ()
    end
  | _ -> fail ()

let of_string_exn s =
  match of_string s with
  | Ok a -> a
  | Error msg -> invalid_arg msg

let to_string a =
  let x, y, z, w = to_octets a in
  Printf.sprintf "%d.%d.%d.%d" x y z w

let pp ppf a = Format.pp_print_string ppf (to_string a)

let compare = Int.compare
let equal = Int.equal

let succ a = (a + 1) land max_value
let add a n = (a + n) land max_value

let is_multicast a = a lsr 28 = 0b1110

let any = 0
let broadcast = max_value
