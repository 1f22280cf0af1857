(** The compiled per-node forwarding pipeline.

    This is the forwarding half of what used to be [Network]: the
    per-packet decision path (interceptor dispatch → LFIB step → FIB
    longest-prefix match), separated from the I/O shell (ports, links,
    sinks, tracing) that [Network] keeps.

    The paper's C2 claim (§3) is that label swapping wins because the
    device stops re-inspecting fields deep within each packet. This
    module applies the same idea to the simulator's own hot path: for
    each node it {e compiles} a forwarding pipeline from the node's
    FIB and interceptor chain —

    - the interceptor chain becomes one prebuilt dispatcher instead of
      a per-packet [List.exists] over closures;
    - [Fib.lookup] is fronted by a direct-mapped dst → (prefix, route)
      cache (negative results cached too).

    The LFIB is a dense array and is read live on every labelled hop;
    nothing compiled is derived from it, nor from the FTN map.

    Correctness rides on monotonic generation counters: the compiled
    state records the generations of the node's {!Mvpn_net.Fib} and of
    its interceptor chain, and every packet re-checks them (two int
    comparisons). Reconvergence ({!Network.refresh_igp}) and a new
    interceptor bump a generation, so the next packet recompiles
    instead of being served a stale next hop.

    Cache effectiveness is observable as the telemetry counters
    [fib.cache.hit]/[fib.cache.miss] (gated by the global telemetry
    switch, like all hot-path metrics). *)

type verdict = Consumed | Continue

type interceptor = from:int option -> Mvpn_net.Packet.t -> verdict

(** The I/O shell's callbacks. The dataplane decides; the hooks act
    (queue on a port, hand to a sink, count a drop) and observe (trace
    a reception). *)
type hooks = {
  transmit : from:int -> to_:int -> Mvpn_net.Packet.t -> unit;
      (** queue toward a neighbor (drops ["no-link"] itself) *)
  deliver : node:int -> Mvpn_net.Packet.t -> unit;
      (** local delivery: telemetry + the node's sink *)
  drop : node:int -> Mvpn_net.Packet.t -> string -> unit;
      (** count a drop under a reason *)
  notify_receive : node:int -> from:int option -> Mvpn_net.Packet.t -> unit;
      (** observation point on every reception (tracer, hop trace) *)
}

type t

val create :
  ?cache:bool ->
  nodes:int ->
  plane:Mvpn_mpls.Plane.t ->
  fibs:Mvpn_net.Fib.t array ->
  unit -> t
(** [cache] (default [true]) arms the route cache; when off every
    packet walks the live tables — the reference path the equivalence
    property races against. Hooks default to no-ops; set them before
    the first packet. *)

val set_hooks : t -> hooks -> unit

val add_interceptor : t -> int -> interceptor -> unit
(** Prepend to the node's chain: interceptors run in prepend order and
    the first [Consumed] wins. The only way to register one, so a
    service never removes another's. *)

val receive : t -> int -> from:int option -> Mvpn_net.Packet.t -> unit
(** Run the node's compiled pipeline on one packet: notify, dispatch
    the interceptor chain, then LFIB step (labelled) or IP forwarding
    (unlabelled). *)

val forward_ip : t -> int -> Mvpn_net.Packet.t -> unit
(** Plain IP forwarding at the node, skipping the interceptor chain —
    for interceptors that finished their own processing. Cached FIB
    lookup, then local delivery or relay. *)

val recompiles : t -> int
(** How many per-node pipeline (re)compilations happened — one per
    node warm-up plus one per generation-detected invalidation. *)
