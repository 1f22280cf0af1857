(** Topology partitioning for the parallel runner.

    Cuts a {!Mvpn_sim.Topology} into [shards] node sets by
    deterministic region growing, minimizing the number of cut links
    (links whose endpoints land in different shards — every one becomes
    a cross-domain exchange channel and bounds the synchronization
    lookahead).

    An optional [hint] (e.g. {!Scenario.region_hint}) pre-clusters
    nodes: nodes sharing a hint value are never separated, so a POP and
    its homed sites always travel together and the cut set stays on the
    thin core. *)

type t = {
  shards : int;  (** effective shard count after clamping *)
  owner : int array;  (** node id → owning shard, in [0, shards) *)
  cut : Mvpn_sim.Topology.link list;
      (** unidirectional links crossing shards, in link-id order *)
}

val compute : ?hint:(int -> int option) -> Mvpn_sim.Topology.t -> shards:int -> t
(** Deterministic: equal topology + hint + shard count give equal
    partitions. [shards] clamps to [1, number of clusters] (a cluster
    is a hint group or a hintless node), so [shards = 1] is the
    identity partition with no cut links, and asking for more shards
    than clusters (or nodes) degrades gracefully. Isolated nodes are
    assigned like any other cluster — every node gets an owner.
    @raise Invalid_argument if [shards < 1]. *)

val sizes : t -> int array
(** Nodes owned per shard. *)
