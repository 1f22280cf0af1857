(** One domain's slice of the partitioned run.

    A shard holds a {e full replica} of the scenario — topology, FIBs,
    label bindings and flow registrations are all built identically from
    the same seed in every domain — but only {e executes} the events of
    the nodes it owns: traffic sources are armed solely for the site
    pairs whose sending CE the shard owns, and a packet reaching a cut
    link leaves through {!Exchange} instead of the port's local
    propagation event. Replication keeps every replica's control plane
    and RNG substreams byte-identical to the sequential run's, which is
    what makes the merged counters independent of the shard count.

    All functions but {!sent} and {!requeue_leftovers} must be called
    from the shard's own domain (telemetry cells are domain-local); the
    runner calls those two after joining the domain. *)

type t

val create :
  id:int -> part:Partition.t -> exchange:Exchange.t -> Mvpn_core.Scenario.t ->
  t
(** Takes a replica {!Runner.replica} has armed (owned sources only)
    and installs its cut-port handoffs: a finished transmission onto a
    cut link goes to the exchange instead of the local propagation
    event. *)

val id : t -> int

val now : t -> float
(** The replica engine's clock: the sim time a failed run stopped at. *)

val ingest : t -> bound:floatarray -> inclusive:bool -> unit
(** Drain inbound exchange channels into the shard's inbox (the
    struct-of-arrays heap of {!Exchange.inbox}), then schedule every
    message with arrival below [bound.{0}] (at or below, when [inclusive])
    as a receive event on the local engine, keyed on its exact
    arrival ({!Mvpn_sim.Engine.schedule_at_cell}). Equal-arrival
    messages always fall into the same window (a window bound beyond
    an arrival implies every such message is already visible), and are
    ordered by (arrival, send time, source shard, channel sequence) —
    so event insertion order, and therefore FIFO tie-breaks, are
    independent of cross-domain timing. The events share one import
    handler fed by a ring, so a steady-state ingest allocates
    nothing.

    Before draining, it settles the packet pools with its neighbours
    (the window edge): it adopts the retired records they sent home
    ({!Exchange.take_home}) and sends home as many retired records as
    it has imported from each ({!Exchange.send_home}). *)

val run_before : t -> before:floatarray -> unit
(** Execute local events strictly below the window bound [before.{0}].
    The bound crosses {!ingest} and this call in the runner's cell, so
    a window boxes no float. *)

val run_to : t -> until:float -> unit
(** Execute local events up to and including [until] (the final,
    inclusive pass — mirrors the sequential [Engine.run ~until]). *)

val peek : t -> float option
(** Next local event time, for the epoch-barrier fallback. *)

val sent : t -> int
(** Packets handed to other shards so far. *)

val requeue_leftovers : t -> int
(** Schedule every message still in the inbox — cross-shard packets
    arriving after the horizon — on the replica's engine, in {!ingest}
    order, and return how many. The sequential run scheduled their
    propagation events and never ran them, so this keeps
    [sim.scheduled] equal. The runner calls it after joining the
    shard's domain, so the counter bump lands in the runner's cells. *)
