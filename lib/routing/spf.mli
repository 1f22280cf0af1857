(** Shortest-path-first computations over a {!Mvpn_sim.Topology}.

    The one path engine: the link-state protocol (plain SPF on IGP
    costs — the routing the paper says cannot see resource usage, §2.2)
    and the constraint-based routing that can (RSVP-TE admission prunes
    links that cannot honour a reservation, then runs the same SPF) both
    run {!dijkstra_csr}. *)

type tree = private {
  mutable src : int;
  dist : float array;  (** [infinity] for unreachable nodes *)
  first_hop : int array;  (** next hop from [src] toward each node; -1 if none *)
  parent : int array;  (** predecessor on the shortest path; -1 at/unreachable *)
}
(** A shortest-path tree. A tree is also a buffer: {!dijkstra_into}
    and {!dijkstra_csr} overwrite one in place, so a caller that keeps
    one per computation re-runs SPF without allocating. *)

val make_tree : nodes:int -> tree
(** A tree buffer for a [nodes]-node graph, with every node
    unreachable and [src = -1]. *)

type workspace
(** The relax loop's scratch: settled flags, the frontier heap, a key
    cell and a weight row. It grows to the largest graph it has run on
    and is reused from run to run. *)

val workspace : unit -> workspace

val dijkstra :
  ?usable:(Mvpn_sim.Topology.link -> bool) ->
  ?metric:(Mvpn_sim.Topology.link -> float) ->
  Mvpn_sim.Topology.t -> src:int -> tree
(** Shortest-path tree from [src], in a fresh tree. [usable] defaults
    to the link being up; [metric] defaults to the link's IGP [cost].
    Ties broken toward lower node ids, deterministically. *)

val dijkstra_into :
  workspace ->
  ?usable:(Mvpn_sim.Topology.link -> bool) ->
  ?metric:(Mvpn_sim.Topology.link -> float) ->
  Mvpn_sim.Topology.t -> src:int -> into:tree -> unit
(** {!dijkstra} into the caller's [into] (sized for the topology's
    nodes) with the caller's workspace: the weight row is the
    workspace's, so once both have grown to the topology the run
    allocates nothing. *)

val dijkstra_csr :
  workspace -> off:int array -> nbr:int array -> weight:floatarray ->
  src:int -> into:tree -> unit
(** The relax loop under {!dijkstra}, over a graph in compressed sparse
    rows: node [v]'s out-edges are positions [off.(v)] to
    [off.(v + 1) - 1] of [nbr] (the neighbor, in increasing id) and
    [weight] (its metric; [nan] marks an unusable edge). There are
    [Array.length off - 1] nodes, and [into] must have that many slots.
    Nothing is allocated per pop or per push; the workspace's frontier
    only grows. Link-state SPF over a router's LSDB ({!Ospf}) and SPF
    over the live topology share it.
    @raise Invalid_argument on an unknown [src] or a mis-sized [into]. *)

val shortest_path :
  ?usable:(Mvpn_sim.Topology.link -> bool) ->
  ?metric:(Mvpn_sim.Topology.link -> float) ->
  Mvpn_sim.Topology.t -> src:int -> dst:int -> int list option
(** One-shot shortest path. *)
