(** An IPSec ESP tunnel between two gateway addresses.

    [encapsulate] wraps a packet in tunnel-mode ESP: outer header
    between the gateways, size grown by the exact ESP overhead, inner
    header marked unreadable, an ESP sequence number stamped from the
    outbound SA, and — the paper's C4 knob — the inner ToS byte either
    copied to the outer header ([copy_tos:true], RFC 2983 uniform model)
    or left best-effort so the backbone cannot see the service class.

    Both operations return the crypto processing delay the gateway
    spends on the packet; the caller adds it to the simulation clock. *)

type t
(** One direction of a gateway pair: packets are encapsulated at
    [local] and decapsulated at [remote]. A duplex connection is two
    tunnels with swapped endpoints (each with its own SA pair, as real
    IPSec requires). *)

val create :
  ?copy_tos:bool ->
  cipher:Crypto.cipher ->
  local:Mvpn_net.Ipv4.t ->
  remote:Mvpn_net.Ipv4.t ->
  unit -> t
(** [copy_tos] defaults to [false] — the paper's problem case. *)

val copy_tos : t -> bool
val cipher : t -> Crypto.cipher

val encapsulate : t -> Mvpn_net.Packet.t -> float
(** Wrap; returns encryption delay.
    @raise Invalid_argument if the packet is already encapsulated. *)

type decap_result =
  | Decapsulated of float  (** decryption delay *)
  | Replayed  (** dropped by the anti-replay window *)
  | Not_ours
      (** outer destination is not this tunnel's decapsulating (remote)
          gateway *)

val decapsulate : t -> Mvpn_net.Packet.t -> decap_result

val packets_sent : t -> int
val replay_drops : t -> int
