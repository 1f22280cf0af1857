(** Customer sites.

    A site is one customer location: a private prefix behind a CE
    router, attached to a PE router of the provider backbone (Figure 2's
    "VPN sites connection interface"). Private prefixes may overlap
    freely across VPNs — making that work is the whole point of the RD
    machinery. *)

type t = {
  id : int;  (** globally unique site id *)
  name : string;
  vpn : int;  (** the VPN this site belongs to *)
  prefix : Mvpn_net.Prefix.t;  (** the site's private address space *)
  ce_node : int;  (** topology node of the site's CE router *)
  pe_node : int;  (** the provider edge it attaches to *)
}

val make :
  id:int -> name:string -> vpn:int -> prefix:Mvpn_net.Prefix.t ->
  ce_node:int -> pe_node:int -> t

val host : t -> int -> Mvpn_net.Ipv4.t
(** [host site i] is the [i]-th usable address inside the site, for
    generating traffic endpoints.
    @raise Invalid_argument if outside the prefix. *)
