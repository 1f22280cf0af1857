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

    All functions must be called from the shard's own domain (telemetry
    cells are domain-local); {!collect}'s result is read by the runner
    after joining the domain. *)

type result = {
  r_snapshot : Mvpn_telemetry.Registry.snapshot;
      (** this domain's metric cells *)
  r_fates : Fatelog.t;  (** this replica's packet fates *)
  r_leftover : Exchange.msg list;
      (** cross-shard packets arriving after the horizon, in
          deterministic {!ingest} order *)
  r_sent : int;  (** messages pushed to other shards *)
  r_ingested : int;  (** messages scheduled into the local heap *)
  r_scenario : Mvpn_core.Scenario.t;
      (** the replica, for post-join traffic reports *)
}

type t

val create :
  id:int ->
  part:Partition.t ->
  exchange:Exchange.t ->
  build:(unit -> Mvpn_core.Scenario.t) ->
  ?prepare:
    (Mvpn_core.Scenario.t ->
     (time:float -> vpn:int -> band:int -> dropped:bool ->
      latency:float -> unit)
     option) ->
  arm:
    (Mvpn_core.Scenario.t ->
     only:(Mvpn_core.Site.t -> Mvpn_core.Site.t -> bool) ->
     unit) ->
  unit ->
  t
(** Builds the replica, zeroes this domain's metric cells for every
    shard but 0 (so build-time counters — label allocations, FIB
    installs — are counted exactly once across the merge), arms the
    workload for owned source sites only, installs the cut-port
    handoffs and the packet-fate hook. Shard 0 is the canonical replica
    whose build telemetry survives.

    [prepare] runs on the replica after the reset and before arming —
    the hook point where the runner starts a per-replica timeline
    sampler. Its optional return value is a fate tap, chained in front
    of the shard's own fate recording. *)

val id : t -> int

val engine : t -> Mvpn_sim.Engine.t

val ingest : t -> bound:float -> inclusive:bool -> unit
(** Drain inbound exchange channels into the sorted pending inbox, then
    schedule every message with arrival below [bound] (at or below,
    when [inclusive]) as a receive event on the local engine. Equal-
    arrival messages always fall into the same window (a window bound
    beyond an arrival implies every such message is already visible),
    and are ordered by (arrival, send time, source shard, channel
    sequence) — so heap insertion order, and therefore FIFO tie-breaks,
    are independent of cross-domain timing. *)

val run_before : t -> before:float -> unit
(** Execute local events strictly below the window bound. *)

val run_to : t -> until:float -> unit
(** Execute local events up to and including [until] (the final,
    inclusive pass — mirrors the sequential [Engine.run ~until]). *)

val peek : t -> float option
(** Next local event time, for the epoch-barrier fallback. *)

val collect : t -> result
(** Snapshot this domain's cells and hand everything to the runner.
    Call once, after the last event has run. *)
