(** VPN routing and forwarding instance.

    One VRF per (PE, VPN) pair that has sites attached there. Each VRF
    has its own route distinguisher and route-target import/export
    lists, and its own longest-prefix-match table over the VPN's private
    address space. Two VRFs on the same PE can hold the same 10.0/16
    without conflict — "identifiers allow a single routing system to
    support multiple VPNs whose internal address spaces overlap" (§4). *)

type next_hop =
  | Local_site of Site.t  (** the prefix is a site attached to this PE *)
  | Remote_pe of { pe : int; vpn_label : int }
      (** reach via an LSP to [pe], inner label [vpn_label] *)
  | Via_neighbor of int
      (** forward as plain IP to an adjacent node — the inter-provider
          Option-A border, where the neighboring carrier's edge router
          is treated like a CE of this VRF *)

type t

val create :
  pe:int -> rd:Mvpn_routing.Mpbgp.rd ->
  import_rts:Mvpn_routing.Mpbgp.rt list ->
  export_rts:Mvpn_routing.Mpbgp.rt list -> t

val pe : t -> int
val rd : t -> Mvpn_routing.Mpbgp.rd
val import_rts : t -> Mvpn_routing.Mpbgp.rt list
val export_rts : t -> Mvpn_routing.Mpbgp.rt list

val add_local : t -> Site.t -> unit
(** Install a locally attached site's prefix. *)

val install_remote :
  t -> prefix:Mvpn_net.Prefix.t -> pe:int -> vpn_label:int -> unit

val install_via : t -> prefix:Mvpn_net.Prefix.t -> neighbor:int -> unit
(** Install an Option-A border route: plain-IP forwarding to an
    adjacent carrier's edge router. Survives {!clear_remote}, like
    local routes. *)

val remove : t -> Mvpn_net.Prefix.t -> bool

val lookup : t -> Mvpn_net.Ipv4.t -> next_hop option
(** Longest-prefix match within this VRF only. *)

val iter_routes : t -> (Mvpn_net.Prefix.t -> next_hop -> unit) -> unit
(** Visit every route in prefix order — the replication fan-out for
    group delivery. *)

val clear_remote : t -> int
(** Drop every remote route (before re-import); returns how many. *)
