module Prefix = Mvpn_net.Prefix

type t =
  | Prefix_fec of Prefix.t
  | Tunnel_fec of int
  | Vpn_fec of { vpn : int; prefix : Prefix.t }

let rank = function Prefix_fec _ -> 0 | Tunnel_fec _ -> 1 | Vpn_fec _ -> 2

let compare a b =
  match a, b with
  | Prefix_fec p, Prefix_fec q -> Prefix.compare p q
  | Tunnel_fec i, Tunnel_fec j -> Int.compare i j
  | Vpn_fec x, Vpn_fec y ->
    let c = Int.compare x.vpn y.vpn in
    if c <> 0 then c else Prefix.compare x.prefix y.prefix
  | (Prefix_fec _ | Tunnel_fec _ | Vpn_fec _), _ ->
    Int.compare (rank a) (rank b)

let equal a b = compare a b = 0
