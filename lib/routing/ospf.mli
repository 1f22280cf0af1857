(** Link-state interior routing (OSPF-like).

    Each router originates a link-state advertisement (LSA) describing
    its up adjacencies and attached prefixes; LSAs flood hop by hop in
    synchronous rounds; each router then runs SPF over its own LSA
    database to build a FIB. The model captures what the paper leans on:
    convergence delay in flooding rounds, control-message volume, and —
    crucially for §2.2 — the fact that the LSAs carry *no* resource-usage
    information, so plain SPF routing cannot do bandwidth-aware
    admission (that is what E8 demonstrates against CSPF). *)

type t

val create : ?members:(int -> bool) -> Mvpn_sim.Topology.t -> t
(** One router per topology node. [members] (default: everyone)
    restricts the routing domain: only member routers originate LSAs,
    form adjacencies and flood — the "separate IGP per provider"
    boundary of multi-carrier deployments. Non-member nodes keep empty
    tables. *)

val attach_prefix : t -> int -> Mvpn_net.Prefix.t -> unit
(** Declare that router [node] originates reachability for a prefix
    (a customer subnet behind it, a loopback, ...). Takes effect at the
    next {!converge}. *)

val converge : t -> int
(** Re-originate every router's LSA and flood to fixpoint. Returns the
    number of synchronous flooding rounds taken (0 when nothing
    changed). Call again after topology or prefix changes. *)

val converged : t -> bool
(** [true] when every router's database equals every other's. *)

val messages_sent : t -> int
(** Cumulative count of LSA copies transferred between routers. *)

val fib : t -> int -> Mvpn_net.Fib.t
(** The forwarding table SPF built for a router at the last
    {!converge}. Routes carry source {!Mvpn_net.Fib.Igp}; a prefix
    attached to the router itself maps to
    {!Mvpn_net.Fib.local_delivery}. A converge that moves neither the
    router's SPF distances and first hops nor any LSA's prefixes keeps
    the same table (physically), so callers may compare with [==]. *)

val next_hop_to_router : t -> src:int -> dst:int -> int option
(** Next hop from [src] toward router [dst] per [src]'s database. Runs
    (or reuses) SPF only: the FIB is never touched by a query. *)

val distance : t -> src:int -> dst:int -> float
(** IGP distance between routers per [src]'s database ([infinity] when
    unreachable). Like {!next_hop_to_router}, a pure read. *)
