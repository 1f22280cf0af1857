(** Shortest-path-first computations over a {!Mvpn_sim.Topology}.

    These are the pure graph algorithms under both the link-state
    protocol (plain SPF on IGP costs — the routing the paper says cannot
    see resource usage, §2.2) and the constraint-based routing that can
    (CSPF filters links by available bandwidth before running the same
    SPF). *)

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
    [Array.length off - 1] nodes. Allocates the tree plus O(n + m)
    words of frontier and nothing per pop. Link-state SPF over a
    router's LSDB ({!Ospf}) and SPF over the live topology share it. *)

val shortest_path :
  ?usable:(Mvpn_sim.Topology.link -> bool) ->
  ?metric:(Mvpn_sim.Topology.link -> float) ->
  Mvpn_sim.Topology.t -> src:int -> dst:int -> int list option
(** One-shot shortest path. *)

val widest_path :
  Mvpn_sim.Topology.t -> src:int -> dst:int -> (int list * float) option
(** Path maximizing the minimum available (unreserved) bandwidth along
    it, with the bottleneck value. Only considers links that are up. *)

val k_shortest :
  ?k:int ->
  ?usable:(Mvpn_sim.Topology.link -> bool) ->
  Mvpn_sim.Topology.t -> src:int -> dst:int -> int list list
(** Yen's algorithm: up to [k] (default 3) loop-free shortest paths in
    non-decreasing cost order. *)

val path_cost :
  ?metric:(Mvpn_sim.Topology.link -> float) ->
  Mvpn_sim.Topology.t -> int list -> float option
(** Total metric of a node path; [None] if some hop has no link. *)
