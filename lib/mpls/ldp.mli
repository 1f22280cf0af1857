(** Label distribution protocol (downstream-unsolicited, liberal
    retention — simplified).

    For each prefix FEC, every LSR allocates a label from its own space
    and advertises the binding to all neighbors; each LSR then splices
    its incoming label to the label its IGP next hop advertised,
    producing a hop-by-hop LSP tree rooted at the FEC's egress router.
    With penultimate-hop popping the egress advertises implicit null, so
    its upstream neighbor pops instead of swapping.

    This is the "label distribution protocol" path of §4: the discovery
    and reachability machinery piggybacks on LDP/OSPF/BGP, and the data
    traffic rides LSPs created to connect the members. *)

type t

val distribute :
  ?php:bool ->
  ?usable:(Mvpn_sim.Topology.link -> bool) ->
  Mvpn_sim.Topology.t -> Plane.t ->
  fecs:(Mvpn_net.Prefix.t * int) list -> t
(** [distribute topo plane ~fecs] allocates labels and installs LFIB and
    FTN entries on every node for every (prefix, egress-node) FEC.
    [php] (default [true]) enables penultimate-hop popping; [usable]
    (default: link is up) restricts which links LSPs may cross — the
    per-provider label-distribution boundary. Unreachable routers simply
    get no entry for that FEC.
    @raise Invalid_argument on an unknown egress node. *)

val refresh : t -> unit
(** Recompute next hops against the current topology (after a failure
    and IGP reconvergence), keeping existing label bindings, and bring
    the entries up to date: one that did not move is kept as it is
    (no allocation, no FTN generation bump), one that moved is
    replaced. Routers that lost reachability to a FEC's egress have
    their entries removed. *)

val local_binding : t -> router:int -> Mvpn_net.Prefix.t -> int option
(** The label [router] allocated for a FEC; [implicit_null] at the
    egress when PHP is on. *)

val ingress_label : t -> router:int -> Mvpn_net.Prefix.t -> int option
(** The label an ingress at [router] would push for the FEC —
    [None] when unreachable or when the next hop is the PHP egress
    (forward unlabelled). *)

val messages : t -> int
(** Label-mapping advertisements sent (bindings × neighbors), cumulative
    across {!distribute} and {!refresh}. *)

val fec_count : t -> int
