(** Offline capacity planning.

    Provider-side "what if" arithmetic over a demand matrix: route the
    demands on paper — shortest-path as the IGP would, or
    capacity-aware as TE would place them — and read off per-link
    loads, hot spots, and the upgrades a pure-IGP network would need.
    Pure functions over the topology; nothing is reserved or installed.
    This is the planning counterpart of experiment E7. *)

type demand = { src : int; dst : int; bandwidth : float }

type placement

val route_spf : Mvpn_sim.Topology.t -> demand list -> placement
(** Every demand follows its current shortest path (capacity-blind, as
    §2.2 routing does). Unreachable demands are counted unrouted. *)

val route_ecmp : Mvpn_sim.Topology.t -> demand list -> placement
(** Equal-cost multipath: each demand splits fractionally and equally
    over every shortest next hop at every node (the hash-splitting
    ideal). Still capacity-blind — ECMP spreads ties, it cannot see
    load. *)

val route_capacity_aware : Mvpn_sim.Topology.t -> demand list -> placement
(** Sequential CSPF-style placement: each demand takes the cheapest
    path whose links still have room for it, planning to line rate.
    Demands that fit nowhere are unrouted. *)

val routed : placement -> int
val unrouted : placement -> int

val link_load : placement -> Mvpn_sim.Topology.link -> float
(** Planned bits per second over one link. *)

val max_utilization : placement -> float
(** Highest planned load ÷ capacity across links. *)

val hot_links : placement -> (Mvpn_sim.Topology.link * float) list
(** Overloaded links (planned utilization above 1), with their
    utilization, worst first. *)

val upgrades_needed : placement -> (Mvpn_sim.Topology.link * float) list
(** For overloaded links, the extra capacity (bps) that would bring
    them to 100%: the IGP network's upgrade bill. *)
