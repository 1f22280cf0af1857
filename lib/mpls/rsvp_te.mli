(** RSVP-TE tunnel signaling: bandwidth-reserving, label-installing,
    preemptable traffic-engineered LSPs.

    A tunnel is signalled along a CSPF path (or an operator-supplied
    explicit route), reserves its bandwidth on every link, and installs
    a label-switched path into the {!Plane}: an FTN entry at the
    ingress ([Tunnel_fec id]) and swap/pop entries downstream. Tunnels
    carry setup/hold priorities; a tunnel that cannot fit may preempt
    reservations with worse hold priority. Link failures tear affected
    tunnels down; {!reroute_down} re-signals them on what remains —
    "users can also control QoS and general traffic flow more precisely
    to avoid congested, constrained or disabled links" (§3). *)

type admission =
  | Cspf
      (** resource-aware: prune links without room for the reservation
          (down, too little unreserved bandwidth, or, for a sub-pool
          tunnel, too little sub-pool room), run SPF over the rest, and
          refuse rather than over-commit *)
  | Igp_only
      (** the §2.2 baseline: route on plain SPF and commit blindly;
          reservations may exceed capacity (tracked as over-commitment) *)

(** DiffServ-aware TE (DS-TE): premium (EF-carrying) tunnels draw from
    a bandwidth sub-pool capped at a fraction of each link, so the EF
    class can never occupy a link completely and its per-hop delay
    bound survives TE placement. *)
type class_type =
  | Global_pool
  | Subpool  (** premium; capped at the sub-pool fraction per link *)

type tunnel = private {
  id : int;
  src : int;
  dst : int;
  bandwidth : float;
  setup_priority : int;  (** 0 (best) – 7 *)
  hold_priority : int;
  class_type : class_type;
  mutable path : int list;  (** empty when down *)
  mutable up : bool;
}

type t

val create :
  ?php:bool -> ?subpool_fraction:float -> Mvpn_sim.Topology.t -> Plane.t ->
  t
(** [subpool_fraction] (default 0.4) caps the premium sub-pool per
    link. @raise Invalid_argument if outside (0, 1]. *)

val signal :
  ?explicit_path:int list ->
  ?setup_priority:int -> ?hold_priority:int ->
  ?admission:admission -> ?allow_preempt:bool ->
  ?class_type:class_type ->
  t -> src:int -> dst:int -> bandwidth:float ->
  (tunnel, string) result
(** Establish a tunnel. Priorities default to 7 (preemptable, cannot
    preempt anything at default). An [explicit_path] must run from
    [src] to [dst] over existing links and visit no node twice;
    otherwise the call returns [Error] before allocating a tunnel id,
    reserving bandwidth or installing a label. Under [Cspf] admission
    it must also pass the CSPF prune on every link, or the call is
    refused the same way; only [Igp_only] commits it blindly. With
    [allow_preempt] (default false), on CSPF failure the call may tear
    down tunnels whose hold priority is strictly worse than this
    tunnel's setup priority and retry once — on the explicit path, when
    one is given; victims are left down (re-signal with
    {!reroute_down}). *)

val teardown : t -> int -> bool
(** Tear a tunnel down by id and release its reservations; [false] if
    unknown or already down. *)

val tunnels : t -> tunnel list

val ingress_fec : tunnel -> Fec.t
(** The FTN key steering traffic into the tunnel at its ingress. *)

val handle_link_failure : t -> int
(** Tear down every up tunnel whose path crosses a down link, releasing
    reservations; returns how many went down. *)

val reroute_down : t -> int * int
(** Try to re-signal every down tunnel (CSPF, no preemption); returns
    [(restored, still_down)]. A tunnel whose previous attempt failed
    against the current {!Mvpn_sim.Topology.generation} is skipped
    (counted in [still_down]) until the topology changes — retry
    loops are free while nothing moved. Telemetry: the
    [rsvp.reroute.attempt] / [rsvp.reroute.skipped] counters. *)

val overcommitted_links : t -> (Mvpn_sim.Topology.link * float) list
(** Links whose reservations exceed capacity, with the excess — only
    possible via [Igp_only] admission. *)

val reserved_fraction : t -> Mvpn_sim.Topology.link -> float
(** reserved / capacity for a link. *)

val subpool_reserved : t -> Mvpn_sim.Topology.link -> float
(** Bits per second of premium (sub-pool) reservations on a link. *)
