(** Egress port: a queue discipline draining onto a link at line rate.

    Where queueing delay, serialization delay and loss actually happen
    in the simulation. A packet handed to {!send} is classified into a
    band, queued (or dropped by the discipline), serialized at the
    link's bandwidth, and delivered to the neighbor after the link's
    propagation delay via the [on_deliver] callback. Transmission is
    pipelined: the next packet starts serializing while the previous one
    propagates. *)

type t

val create :
  ?on_txstart:(Mvpn_net.Packet.t -> unit) ->
  ?on_drop:(reason:string -> Mvpn_net.Packet.t -> unit) ->
  Mvpn_sim.Engine.t ->
  link:Mvpn_sim.Topology.link ->
  qdisc:Queue_disc.t ->
  classify:(Mvpn_net.Packet.t -> int) ->
  on_deliver:(Mvpn_net.Packet.t -> unit) ->
  t
(** [classify] maps a packet to a band index (e.g. by EXP bits when
    labelled, by DSCP otherwise); [on_deliver] fires at the far end of
    the link. [on_txstart] fires when a packet leaves the queue and
    serialization begins (span tracing records its "txstart" hop
    there); [on_drop] fires when the port discards — reasons
    ["queue-tail"], ["queue-red"], ["link-down"]. Both default to
    no-ops and must not re-enter the port. *)

val send : t -> Mvpn_net.Packet.t -> unit
(** Enqueue a packet for transmission. Dropped (counted, and reported
    via [on_drop]) if the discipline refuses it, the link is down, or
    an armed fault claims it (reasons ["chaos-loss"] /
    ["chaos-corrupt"]). *)

(** {2 Fault injection}

    The chaos engine's data-plane lever: an armed fault discards a
    fraction of arriving packets before they queue, modelling a lossy
    or corrupting span. Verdicts are a pure hash of (packet uid, seed)
    — not a stream — so a given packet's fate on this port is
    independent of what other traffic crossed it, which keeps seeded
    chaos runs comparable across configurations. *)

val set_fault : t -> ?loss:float -> ?corrupt:float -> seed:int -> unit -> unit
(** Arm a loss/corruption fault. [loss] and [corrupt] (defaults 0) are
    independent per-packet probabilities; corruption is only tested on
    packets that survive loss.
    @raise Invalid_argument if a probability is outside [0, 1]. *)

val clear_fault : t -> unit

val set_handoff : t -> (Mvpn_net.Packet.t -> unit) option -> unit
(** Override propagation: when set, a packet finishing serialization on
    an up link is passed to the handoff instead of being scheduled on
    this engine. The handoff runs at the serialization end, so it
    derives the arrival itself as [Engine.now engine +. link delay],
    the key local propagation would use; no float crosses the call.
    The parallel runner installs handoffs on cut-link ports so the
    packet crosses into the shard that owns the far end; [None]
    restores local propagation. Serialization, port counters and drop
    handling are unchanged either way. *)

val link : t -> Mvpn_sim.Topology.link

val qdisc : t -> Queue_disc.t

type counters = {
  offered : int;
  delivered : int;
  dropped_queue : int;
  dropped_link_down : int;
  dropped_fault : int;  (** discards by an armed chaos fault *)
  bytes_delivered : int;
  busy_seconds : float;
}

val counters : t -> counters

val utilization : t -> now:float -> float
(** Fraction of elapsed time the transmitter was busy. *)
