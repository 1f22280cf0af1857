(** Forwarding information base: the per-router table that maps a
    destination address, via longest-prefix match, to a next-hop node.

    Next hops are simulator node identifiers (plain [int]s); the
    simulation layer resolves them to links. A route remembers where it
    came from so reconvergence can replace protocol routes without
    touching static configuration. *)

type source =
  | Static  (** operator-configured *)
  | Connected  (** directly attached subnet *)
  | Igp  (** learned from the link-state protocol (OSPF) *)
  | Bgp  (** learned from BGP / MP-BGP *)

type route = {
  next_hop : int;  (** node id of the next hop ([-1] for local delivery) *)
  cost : int;  (** path metric, for display and tie-breaking *)
  source : source;
}

type t

val create : unit -> t

val local_delivery : int
(** The pseudo next-hop ([-1]) meaning "this router owns the prefix". *)

val add : t -> Prefix.t -> route -> unit
(** Insert or replace the route for a prefix. *)

val remove : t -> Prefix.t -> bool

val lookup : t -> Ipv4.t -> (Prefix.t * route) option
(** Longest-prefix match. *)

val generation : t -> int
(** Monotonic mutation counter, bumped by {!add}, {!remove} and
    {!clear_source}. Route caches compiled over this table (the
    dataplane's dst → route cache) compare generations to detect that
    their entries may be stale — reconvergence invalidates by bumping,
    never by notifying. *)

val next_hop : t -> Ipv4.t -> int option
(** Next-hop node for an address, if any route matches. *)

val find : t -> Prefix.t -> route option
(** Exact-match lookup. *)

val size : t -> int

val clear_source : t -> source -> int
(** [clear_source t src] removes every route learned from [src],
    returning how many were removed — the reconvergence primitive. *)

val iter : (Prefix.t -> route -> unit) -> t -> unit

val to_list : t -> (Prefix.t * route) list
