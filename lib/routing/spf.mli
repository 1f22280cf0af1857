(** Shortest-path-first computations over a {!Mvpn_sim.Topology}.

    The one path engine: the link-state protocol (plain SPF on IGP
    costs — the routing the paper says cannot see resource usage, §2.2)
    and the constraint-based routing that can (RSVP-TE admission prunes
    links that cannot honour a reservation, then runs the same SPF) both
    run {!dijkstra_csr}. *)

type tree = {
  src : int;
  dist : float array;  (** [infinity] for unreachable nodes *)
  first_hop : int array;  (** next hop from [src] toward each node; -1 if none *)
  parent : int array;  (** predecessor on the shortest path; -1 at/unreachable *)
}

val dijkstra :
  ?usable:(Mvpn_sim.Topology.link -> bool) ->
  ?metric:(Mvpn_sim.Topology.link -> float) ->
  Mvpn_sim.Topology.t -> src:int -> tree
(** Shortest-path tree from [src]. [usable] defaults to the link being
    up; [metric] defaults to the link's IGP [cost]. Ties broken toward
    lower node ids, deterministically. *)

val dijkstra_csr :
  off:int array -> nbr:int array -> weight:floatarray -> src:int -> tree
(** The relax loop under {!dijkstra}, over a graph in compressed sparse
    rows: node [v]'s out-edges are positions [off.(v)] to
    [off.(v + 1) - 1] of [nbr] (the neighbor, in increasing id) and
    [weight] (its metric; [nan] marks an unusable edge). There are
    [Array.length off - 1] nodes. The frontier is an int
    {!Mvpn_sim.Heap} that grows to its live size: the run allocates the
    tree, the settled flags and that storage, and nothing per pop.
    Link-state SPF over a router's LSDB ({!Ospf}) and SPF over the live
    topology share it. *)

val shortest_path :
  ?usable:(Mvpn_sim.Topology.link -> bool) ->
  ?metric:(Mvpn_sim.Topology.link -> float) ->
  Mvpn_sim.Topology.t -> src:int -> dst:int -> int list option
(** One-shot shortest path. *)
