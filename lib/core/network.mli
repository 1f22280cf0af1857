(** The simulated packet network: the I/O shell around {!Dataplane}.

    Ties everything together at the data plane. Every topology node
    becomes a router with one egress {!Mvpn_qos.Port} per outgoing link
    (queue discipline chosen by the {!Qos_mapping.policy}), an IP FIB,
    and a share of the MPLS {!Mvpn_mpls.Plane}. The per-packet decision
    path (interceptor dispatch, LFIB step, FIB longest-prefix match,
    FTN push) lives in the node's compiled {!Dataplane} pipeline; this
    module owns what surrounds it — ports and links, local sinks, drop
    accounting, tracing — and hands the dataplane its hooks.

    All progress happens on the discrete-event engine; queueing,
    serialization and propagation delays come from the ports. *)

type t

type verdict = Dataplane.verdict = Consumed | Continue

val create :
  ?policy:Qos_mapping.policy ->
  ?wred:bool ->
  ?route_cache:bool ->
  ?seed:int ->
  Mvpn_sim.Engine.t -> Mvpn_sim.Topology.t -> t
(** Builds ports for every link present in the topology. [policy]
    defaults to [Best_effort]; [wred] (default true) arms WRED on the
    AF bands of DiffServ ports; [route_cache] (default true) arms the
    dataplane's generation-invalidated route/FTN caches. Links added to
    the topology afterwards are unknown to the network. *)

val engine : t -> Mvpn_sim.Engine.t
val topology : t -> Mvpn_sim.Topology.t
val plane : t -> Mvpn_mpls.Plane.t
val policy : t -> Qos_mapping.policy

val dataplane : t -> Dataplane.t
(** The compiled forwarding pipelines. Services register interceptors
    and make cached FTN queries through this. *)

val fib : t -> int -> Mvpn_net.Fib.t
(** The node's IP FIB (mutable; provisioning fills it). *)

val set_auto_ftn : t -> bool -> unit
(** When on, an IP-forwarded packet whose matched FIB prefix has an FTN
    binding at this node gets the label pushed (plain MPLS ingress). *)

val set_route_cache : t -> bool -> unit
(** Toggle the dataplane caches (flushes compiled state). E0 races the
    two settings; behavior is observationally identical either way. *)

val route_cache : t -> bool

val set_interceptor : t -> int -> Dataplane.interceptor -> unit
(** Replace the node's interceptor chain with this single function.
    (Convenience for {!Dataplane.set_interceptor}.) *)

val add_interceptor : t -> int -> Dataplane.interceptor -> unit
(** Prepend to the node's interceptor chain: interceptors run in
    prepend order and the first [Consumed] wins — how several services
    (an L3 VPN's PE function, an L2 pseudowire demux) share one edge
    router. *)

val clear_interceptor : t -> int -> unit

val set_sink : t -> int -> (Mvpn_net.Packet.t -> unit) -> unit
(** Local-delivery handler; default counts the packet as drop
    ["no-sink"]. *)

val inject : t -> int -> Mvpn_net.Packet.t -> unit
(** Hand a packet to a node as if originated there (runs the full
    receive path, interceptor included). *)

val receive : t -> int -> from:(int option) -> Mvpn_net.Packet.t -> unit
(** Run the node's receive path for a packet arriving from the given
    neighbor (the continuation a port's propagation event invokes).
    Exposed so the parallel runner can re-inject packets that crossed a
    cut link from another shard; [inject] is [receive ~from:None]. *)

val inject_after : t -> delay:float -> int -> Mvpn_net.Packet.t -> unit
(** Schedule [inject] after a processing delay (crypto cost, CPU). *)

val forward_ip : t -> int -> Mvpn_net.Packet.t -> unit
(** Skip the interceptor and run plain IP forwarding at a node — for
    interceptors that have finished their own processing. *)

val transmit : t -> from:int -> to_:int -> Mvpn_net.Packet.t -> unit
(** Queue a packet on the from→to link's port.
    Counts a ["no-link"] drop if no such link exists.

    Fast reroute: when the from→to link is down and the sender's LFIB
    holds a usable {!Mvpn_mpls.Lfib.protection} for [to_], the bypass
    label is pushed and the packet leaves toward the bypass neighbor
    instead — same-tick protection switching, counted under
    [resilience.frr.switched] with one [Frr_switchover] event per
    failure episode. A down link with no usable bypass counts
    [resilience.frr.unprotected] and the port's link-down accounting
    names the loss. *)

val port : t -> link_id:int -> Mvpn_qos.Port.t
(** @raise Invalid_argument on an unknown link id. *)

val drop_packet :
  ?node:int -> ?packet:Mvpn_net.Packet.t -> t -> string -> unit
(** Count a drop under a reason — for interceptors that discard. Pass
    the packet so the fate reaches tracing, SLO conformance and span
    sampling; without it the drop is counted but unattributed. *)

(** {2 Tracing}

    A tracer observes every forwarding step — the hop-by-hop,
    label-by-label journey of Figure 4. Tracing never affects
    forwarding. *)

type trace_action =
  | Trace_receive of int option  (** packet arrived (from which node) *)
  | Trace_transmit of int  (** queued toward this next hop *)
  | Trace_deliver  (** handed to the local sink *)
  | Trace_drop of string

type trace_event = {
  trace_time : float;
  trace_node : int;  (** -1 when the node is unknown (rare drop paths) *)
  trace_uid : int;  (** packet uid; -1 when no packet is in hand *)
  trace_labels : int list;  (** label stack snapshot, top first *)
  trace_action : trace_action;
}

val set_tracer : t -> (trace_event -> unit) option -> unit

(** {2 SLA conformance}

    An attached {!Mvpn_telemetry.Slo} engine is fed every terminal
    packet fate — deliveries (with their end-to-end latency), drops
    from the drop table {e and} port discards (queue refusals,
    link-down losses) — keyed by (vpn, inner-header band), the same
    view {!Accounting} invoices by; un-tenanted traffic books under
    vpn 0. An attached {!Mvpn_telemetry.Span.sampler} is offered the
    same fates and reconstructs sampled packets' hop-by-hop spans from
    the global trace ring. Both observations happen only while
    {!Mvpn_telemetry.Control} is enabled and never affect
    forwarding. *)

val set_slo : t -> Mvpn_telemetry.Slo.t option -> unit

val slo : t -> Mvpn_telemetry.Slo.t option

val set_span_sampler : t -> Mvpn_telemetry.Span.sampler option -> unit

val span_sampler : t -> Mvpn_telemetry.Span.sampler option

val set_fate_hook :
  t ->
  (time:float -> vpn:int -> band:int -> dropped:bool -> latency:float ->
   unit)
    option ->
  unit
(** Observe every terminal packet fate — the same stream an attached
    {!Mvpn_telemetry.Slo} sees, as plain data: deliveries carry their
    end-to-end latency, drops carry [latency = 0]. The parallel runner
    collects fates per shard and replays the time-sorted merge into one
    SLO engine, so conformance totals are identical for every shard
    count. Fires only while {!Mvpn_telemetry.Control} is enabled. *)

val refresh_igp :
  ?members:(int -> bool) -> t -> Mvpn_routing.Ospf.t -> unit
(** Copy each member node's OSPF table (default: every node) into its
    FIB after a converge. The result is what [Fib.clear_source fib Igp]
    followed by adding every OSPF route would leave, done in place: IGP
    routes the OSPF table no longer carries are removed and every OSPF
    route is (re)written. A node's FIB generation moves iff that
    clear-and-refill would have moved it, so the same nodes
    recompile. *)

val drop_counts : t -> (string * int) list
(** Per-reason drop counters, sorted by reason. The per-network drop
    table is the single authority; the [net.drop.<reason>] and
    [net.drops] telemetry counters mirror it (set, not independently
    incremented), so the two views agree whenever telemetry is on. *)

val drops : t -> int
(** Total drops across all reasons (not counting port queue drops —
    read those from the port counters). *)

(** {2 Conservation ledger}

    Always-on packet accounting the runtime invariant auditor
    ({!Mvpn_resilience.Audit}) balances every tick:

    {[ injected + imported + forked
       = delivered + table_drops + port_drops + exported + consumed
         + live ]}

    where [port_drops] is {!port_drop_total}. [live] is maintained
    independently of the fate counters through the packet's [fated]
    flag, so a lost or double-counted fate unbalances the equation
    instead of cancelling. The books cover unicast and PE-replicated
    traffic; packets a test abandons without handing them to the
    network (unattributed {!drop_packet} calls) retire one live packet
    against the drop table. *)

type flow_totals = {
  injected : int;  (** packets handed in via {!inject} *)
  imported : int;  (** packets received from another shard *)
  exported : int;  (** packets handed off to another shard *)
  forked : int;  (** replication copies spawned (PE multicast) *)
  consumed : int;  (** replicated originals absorbed at the PE *)
  delivered : int;  (** packets handed to a sink *)
  table_drops : int;  (** same total as {!drops} *)
  unattributed : int;  (** packet-less {!drop_packet} calls *)
  live : int;  (** packets currently held (queues, links, events) *)
}

val flow_totals : t -> flow_totals

val port_drop_total : t -> int
(** Port discards summed over every link's port: queue refusals,
    link-down and fault losses (the drops {!drops} excludes). *)

val iter_ports : t -> (link_id:int -> Mvpn_qos.Port.t -> unit) -> unit
(** Visit every armed port (queue-depth audits, depth telemetry). *)

val note_import : t -> unit
val note_export : t -> unit
(** Ledger entries for shard-boundary hand-offs: the parallel runner's
    exchange moves packets between replicas without [inject]/[deliver];
    export retires the packet from this network's live count, import
    adds it to the receiver's. *)

val note_fork : t -> unit
(** A replication copy entered circulation (PE multicast ingress). *)

val note_consume : t -> Mvpn_net.Packet.t -> unit
(** A replicated original was absorbed without a terminal delivery or
    drop (the PE released it after fanning copies out). Idempotent per
    incarnation. *)

val set_drop_leak : t -> int -> unit
(** Test-only sabotage: make the next [n] table drops skip the
    authoritative count (the packet is still released and retired from
    [live]) — a deliberately injected conservation bug the auditor must
    catch. Never call outside tests. *)
