(** The MPLS VPN service (§4–§5): the paper's architecture, deployed.

    [deploy] runs the full provisioning pipeline on a backbone:

    + membership: every site joins its VPN ({!Membership});
    + IGP: OSPF floods PE loopbacks and converges ({!Mvpn_routing.Ospf});
    + label distribution: LDP binds labels to every PE loopback FEC,
      hop by hop with PHP ({!Mvpn_mpls.Ldp});
    + VRFs: one per (PE, VPN) with RD/RT, local site routes installed,
      and a VPN label allocated per site route in the PE's label space;
    + reachability: MP-BGP exports each VRF's routes (label
      piggybacked), propagates full-mesh or via route reflector, and
      imports by route target ({!Mvpn_routing.Mpbgp});
    + data plane: an interceptor at each PE classifies packets arriving
      from attached CEs into their VRF, maps DSCP→EXP, pushes the
      two-level label stack, and hands the packet to the LSP; the
      egress PE's LFIB pops the VPN label straight to the destination
      CE;
    + optionally, PE–PE traffic rides RSVP-TE tunnels instead of LDP
      LSPs ([use_te]).

    Isolation is structural: forwarding between sites uses only VRF
    lookups and labels, never the global FIB, so overlapping customer
    prefixes cannot collide.

    Group communication (the abstract's motivating need): a packet sent
    to a class-D address replicates at the ingress PE, one copy per
    member site of the VPN — except the sender's own site — each copy
    forwarded exactly like unicast with the sender's DSCP intact.
    Replication is intra-provider: it never crosses an Option-A border
    (inter-AS multicast VPN needs P2MP machinery beyond this model). *)

type t

val deploy :
  ?mechanism:Membership.mechanism ->
  ?session_mode:Mvpn_routing.Mpbgp.session_mode ->
  ?use_te:bool ->
  ?map_dscp_to_exp:bool ->
  ?domain:(int -> bool) ->
  net:Network.t -> backbone:Backbone.t -> sites:Site.t list -> unit -> t
(** [use_te] reserves 1 Mb/s per PE pair. [map_dscp_to_exp] (default
    true) is the §5 edge function; turning it off sends every label
    with EXP 0, so the core cannot differentiate — the E6 comparison
    point. [domain] (default: all nodes) bounds this provider's IGP and
    label distribution to its own routers — required when several
    carriers share one simulated internetwork (see {!Interprovider}). *)

val membership : t -> Membership.t
val ospf : t -> Mvpn_routing.Ospf.t
val te : t -> Mvpn_mpls.Rsvp_te.t option

val set_ip_fallback : t -> bool -> unit
(** Graceful degradation toggle (default off). When on and no labelled
    transport reaches the egress PE — FTN missing, or its egress link
    down with no usable fast-reroute bypass — the ingress PE tunnels
    the VPN label inside a best-effort IP packet between PE loopbacks
    (MPLS-in-IP, RFC 4023 in spirit; the VPN label rides the GRE key)
    instead of dropping. The egress PE's interceptor decapsulates and
    the VPN label pops to the CE as usual. Degraded traffic is
    best-effort by construction (the outer header carries BE, the
    tenant's class is invisible to the core) and is always visible:
    [resilience.fallback.packets]/[engaged]/[restored] counters and
    one [Fallback_engaged]/[Lsp_restored] event pair per degraded
    (ingress, egress) episode. *)

val ip_fallback : t -> bool

val vrf : t -> pe:int -> vpn:int -> Vrf.t option

val add_site : t -> Site.t -> unit
(** Join a new site after deployment: updates membership, VRFs, BGP and
    the data plane. The site's CE link must already exist. *)

val remove_site : t -> site_id:int -> bool
(** A site leaves: withdraw routes, drop VRF state. *)

(** {2 Inter-provider borders (Option A, §5 "cross-network SLA")} *)

val add_external_route :
  t -> pe:int -> vpn:int -> prefix:Mvpn_net.Prefix.t -> via:int ->
  site_id:int -> unit
(** Install a prefix learned over the border (per-VRF eBGP) reachable
    as plain IP via [neighbor], allocate a VPN label for it at the
    border PE, and redistribute it to this provider's other PEs through
    MP-BGP. [site_id] tags the export for later withdrawal. *)

val reconverge : t -> int
(** After a topology change: re-run OSPF, refresh LDP next hops,
    re-signal broken TE tunnels, refresh PE next-hop caches. Returns
    OSPF flooding rounds. *)

val pe_next_hop : t -> src:int -> dst:int -> int option
(** The first hop from PE [src] toward PE [dst] over the up links of
    the routing domain, as of the last {!deploy} or {!reconverge};
    [None] when [dst] is unreachable or equals [src]. *)

(** Provisioning-state metrics (experiment E1). *)
type state_metrics = {
  sites : int;
  vpns : int;
  bgp_sessions : int;
  vpnv4_routes : int;  (** announcements in the BGP system *)
  lfib_entries : int;  (** network-wide label state *)
  labels_allocated : int;
  vrf_count : int;
  control_messages : int;  (** membership + BGP + LDP message total *)
  provisioning_touches : int;
      (** operator actions: one VRF binding per site (the "adds new
          site = configure one PE" claim) *)
}

val metrics : t -> state_metrics
