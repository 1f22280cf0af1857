(** Network topology: nodes joined by unidirectional capacitated links.

    Nodes are dense integer ids. A duplex connection is two
    unidirectional links, so asymmetric failures and per-direction
    reservation (the RSVP-TE substrate) fall out naturally. Links carry
    the attributes the paper's machinery needs: capacity, propagation
    delay, an IGP cost, an up/down flag for failure injection, and a
    running TE reservation. *)

type link = {
  id : int;
  src : int;
  dst : int;
  bandwidth : float;  (** capacity, bits per second *)
  delay : float;  (** propagation delay, seconds *)
  mutable cost : int;  (** IGP metric *)
  mutable up : bool;
  mutable reserved : float;  (** TE-reserved bandwidth, bits per second *)
}

type t

val create : unit -> t

val add_node : ?name:string -> t -> int
(** Returns the new node's id (dense, starting at 0). *)

val node_count : t -> int

val node_name : t -> int -> string
(** @raise Invalid_argument on an unknown id. *)

val find_node : t -> string -> int option
(** Look a node up by name (linear scan). *)

val connect :
  ?cost:int -> t -> int -> int -> bandwidth:float -> delay:float ->
  link * link
(** [connect t a b ~bandwidth ~delay] adds the duplex pair a→b, b→a.
    [cost] defaults to 1.
    @raise Invalid_argument on unknown nodes, self-loops, or a duplicate
    link in the same direction. *)

val link_count : t -> int
(** Number of unidirectional links. *)

val links : t -> link list

val link : t -> int -> link
(** Link by id. @raise Invalid_argument on an unknown id. *)

val find_link : t -> int -> int -> link option
(** The a→b link, if present (regardless of its up/down state). *)

val find_link_id : t -> int -> int -> int
(** Allocation-free [find_link]: the directed link's id, or -1 when
    none exists. Backed by a lazily built dense matrix for topologies
    up to 1024 nodes, so the data-plane's per-hop lookup is one array
    read. Resolve the id with {!link}. *)

val neighbors : t -> int -> (int * link) list
(** [neighbors t v] is the (neighbor, outgoing link) pairs of [v],
    including links that are down. *)

val up_neighbors : t -> int -> (int * link) list
(** Only neighbors reachable over links that are up. *)

type adjacency = private {
  off : int array;  (** node count + 1 entries *)
  nbr : int array;
  link_ids : int array;
}
(** Every link, grouped by source node in compressed sparse rows:
    node [v]'s out-links (up or down) are positions [off.(v)] to
    [off.(v + 1) - 1] of [nbr] (the neighbor) and [link_ids] (the
    link), in increasing neighbor id. Read-only. *)

val adjacency : t -> adjacency
(** The sorted adjacency, built lazily on first use and rebuilt when
    the link or node count changed since (like {!find_link_id}'s
    matrix). Up/down state is read through {!link}, so flaps need no
    rebuild. Allocation-free once built. *)

val up_degree : t -> int -> int
(** Number of [v]'s out-links that are up: [List.length (up_neighbors t
    v)] without building the list. *)

val set_duplex_state : t -> int -> int -> bool -> unit
(** Bring both directions of the a↔b connection up or down — the
    failure-injection hook. Idempotent: re-asserting the current state
    emits no events, fires no {!on_duplex_change} hooks and leaves
    {!generation} alone.
    @raise Invalid_argument if no such connection exists. *)

val generation : t -> int
(** Monotonic topology mutation counter: bumped by every link added
    and every {e effective} {!set_duplex_state} transition. Consumers
    (e.g. RSVP-TE re-signalling) compare it to avoid repeating work
    against an unchanged topology. *)

val on_duplex_change : t -> (a:int -> b:int -> up:bool -> unit) -> unit
(** Register a hook called after every effective duplex state
    transition (the resilience layer's failure-detection feed). Hooks
    run in registration order; they are never called for idempotent
    re-assertions. *)

val available : link -> float
(** Unreserved capacity: [bandwidth -. reserved], floored at 0. *)

val reserve : link -> float -> bool
(** [reserve l bw] commits [bw] of [l]'s capacity if available; [false]
    (and no change) otherwise. *)

val release : link -> float -> unit
(** Return previously reserved bandwidth (clamped at 0). *)

(** {2 Builders} *)

val line : t -> int -> bandwidth:float -> delay:float -> int array
(** Append a path of n fresh nodes; returns their ids in order. *)

val ring : t -> int -> bandwidth:float -> delay:float -> int array

val star : t -> int -> bandwidth:float -> delay:float -> int * int array
(** [star t n] appends a hub and n leaves; returns (hub, leaves). *)

val full_mesh : t -> int -> bandwidth:float -> delay:float -> int array

val ring_with_chords :
  t -> int -> chords:(int * int) list -> bandwidth:float -> delay:float ->
  int array
(** A ring of n nodes plus chord connections given as index pairs —
    the shape of a provider backbone (POP ring with express links). *)

val random_connected :
  t -> Rng.t -> n:int -> extra_links:int -> bandwidth:float ->
  delay:float -> int array
(** A random spanning tree over n fresh nodes plus [extra_links] random
    additional duplex connections (duplicates skipped). *)
