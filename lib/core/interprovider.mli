(** Multi-carrier VPNs (§5).

    "This cross-network SLA capability allows the building of VPNs
    using multiple carriers as necessary, an option not available with
    most frame relay offerings."

    Two providers, each with its own backbone, IGP, label distribution
    and MP-BGP, share one simulated internetwork joined by a border
    link. A VPN spans both: each provider carries its own sites
    natively and learns the other's prefixes over a per-VRF eBGP
    session between the border PEs (inter-AS Option A — the neighbor
    carrier's edge router is treated as a CE). DiffServ markings cross
    the border in the IP header, so the end-to-end service level
    survives the hand-off. *)

type t

val build :
  ?pops_per_provider:int ->
  ?core_bandwidth:float ->
  ?attach:(Backbone.t -> Backbone.t -> unit) ->
  net_of:(Mvpn_sim.Topology.t -> Network.t) ->
  unit -> t
(** Creates both backbones in one topology and the 45 Mb/s, 2 ms
    border link between provider A's POP 0 and provider B's POP 0,
    calls [attach] (where customer sites should be attached, so their
    access links exist), then [net_of] to wrap the finished topology
    in a network. {!deploy_vpn} packages the common case. *)

val backbone_a : t -> Backbone.t
val backbone_b : t -> Backbone.t
val network : t -> Network.t
val vpn_a : t -> Mpls_vpn.t
(** Provider A's VPN service (after {!deploy_vpn}). *)

val vpn_b : t -> Mpls_vpn.t

val border : t -> int * int
(** (provider A border PE node, provider B border PE node). *)

val ebgp_messages : t -> int
(** UPDATEs exchanged on the per-VRF eBGP border sessions. *)

(** One-call construction: two providers, one VPN spanning both, sites
    given as (provider, pop, prefix) triples. *)
val deploy_vpn :
  ?pops_per_provider:int ->
  ?core_bandwidth:float ->
  ?access_bandwidth:float ->
  ?policy:Qos_mapping.policy ->
  vpn:int ->
  sites_a:(int * Mvpn_net.Prefix.t) list ->
  sites_b:(int * Mvpn_net.Prefix.t) list ->
  unit -> t * Mvpn_sim.Engine.t * Site.t list * Site.t list
(** Returns the internetwork, its engine, and the site lists of each
    provider. After this call any A site can reach any B site of the
    same VPN and vice versa, and isolation against other VPNs holds
    across the border. *)
