(** The overlay VPN baseline (§2): a full mesh of point-to-point
    tunnels between customer sites over plain IP routing.

    This is what the paper argues against: every pair of communicating
    sites needs its own virtual circuit — N(N−1)/2 of them — and when
    the tunnels are IPSec, encryption hides the inner headers from the
    provider's QoS machinery unless the ToS byte is copied out (§2.3).

    Each CE gets a globally routable /32 loopback which OSPF floods
    through the provider network; site-to-site traffic is encapsulated
    at the source CE (ESP with the configured cipher; [Null] models a
    frame-relay/GRE-style PVC with 24 bytes of overhead), carried by
    ordinary IP forwarding, and decapsulated at the destination CE. A
    single crypto engine per CE serializes encryption work, so DES/3DES
    processing is a genuine throughput bottleneck. *)

type t

val deploy :
  ?cipher:Mvpn_ipsec.Crypto.cipher ->
  ?copy_tos:bool ->
  ?ike:Mvpn_ipsec.Ike.params ->
  net:Network.t -> sites:Site.t list -> unit -> t
(** Builds the full tunnel mesh per VPN. [cipher] defaults to [Des],
    [copy_tos] to [false] (the paper's problem case). With [ike], each
    tunnel only carries traffic once its IKE exchange completes
    (phase 1 + phase 2 from deployment time); earlier packets are
    dropped as ["ike-pending"] — the turn-up cost §2.3's key-management
    machinery implies. *)

val tunnel_ready_at : t -> float
(** When the mesh finished keying (0 when deployed without [ike]). *)

val tunnel_count : t -> int
(** Directional tunnels provisioned. *)

val vc_count : t -> int
(** Site-pair circuits (the paper's N(N−1)/2 count). *)

val replay_drops : t -> int
(** Packets the anti-replay windows rejected. *)

(** Provisioning metrics, mirror of {!Mpls_vpn.state_metrics} where it
    makes sense. *)
type state_metrics = {
  sites : int;
  vpns : int;
  tunnels : int;
  vcs : int;
  control_messages : int;
  provisioning_touches : int;
      (** per-tunnel endpoint configurations: 2 per circuit *)
}

val metrics : t -> state_metrics

val inject_replayed_copy : t -> Site.t -> Site.t -> Mvpn_net.Packet.t -> bool
(** Test hook: re-present an already-delivered packet to the
    destination CE as an attacker would; [true] if a tunnel between the
    sites exists (the packet is then re-encapsulated with its original
    sequence and injected). *)
