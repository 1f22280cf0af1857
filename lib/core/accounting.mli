(** Usage accounting and class-based billing.

    §2.2's objection to per-flow QoS is partly commercial: selectable
    QoS "would probably require special billing for high QoS level
    selected", which carriers found unmanageable per flow. The
    class-per-VPN model makes it tractable: meter each VPN's usage per
    service class and price the classes differently. This module is
    that meter — it observes delivered packets (wire it into CE sinks)
    and renders per-VPN invoices.

    Accounting is measurement-plane: it never influences forwarding. *)

type t

val create : unit -> t

val observe : t -> Mvpn_net.Packet.t -> unit
(** Record one delivered packet against (its VPN, its marked class
    band). Packets without a VPN tag are accounted to VPN 0. Running
    totals are mirrored into registry gauges
    [acct.vpn<N>.band<B>.{packets,bytes}] (when telemetry is enabled),
    so {!usage} and [mvpn stats] show the same numbers. *)

val sink : t -> (Mvpn_net.Packet.t -> unit) -> Mvpn_net.Packet.t -> unit
(** [sink t inner] wraps an existing local-delivery sink with
    accounting. *)

type usage = {
  vpn : int;
  band : int;  (** {!Qos_mapping} band: 0=EF … 3=BE *)
  packets : int;
  bytes : int;
}

val usage : t -> usage list
(** All non-zero usage records, sorted by (vpn, band). *)

val invoice : t -> vpn:int -> (usage * float) list * float
(** Line items with their cost and the total, for one customer, at
    EF 8.0, AF-hi 4.0, AF-lo 2.0 and BE 0.5 currency units per GB —
    premium classes priced at the multiples the SLA machinery makes
    defensible. *)

val pp_invoice : Format.formatter -> t -> vpn:int -> unit
