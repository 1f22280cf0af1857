(** Forwarding equivalence classes.

    A FEC names a set of packets that get identical MPLS treatment
    ("flows that have common routing and service level requirements
    typically take the same path", §5). Labels are bound to FECs, never
    to individual flows. *)

type t =
  | Prefix_fec of Mvpn_net.Prefix.t
      (** destination-prefix FEC — what LDP binds hop by hop, including
          the /32 loopbacks of the PEs that BGP next-hops resolve to *)
  | Tunnel_fec of int
      (** a traffic-engineered tunnel, by tunnel id (RSVP-TE) *)
  | Vpn_fec of { vpn : int; prefix : Mvpn_net.Prefix.t }
      (** a customer route within VPN [vpn] — the inner label of the
          RFC 2547 two-level stack *)

val compare : t -> t -> int
val equal : t -> t -> bool
