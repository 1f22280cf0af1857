(** Workload generation and measurement wiring.

    A {!registry} maps flows to SLA collectors: traffic sources record
    each send, CE sinks record each delivery, and the experiment reads
    per-class reports at the end. Generators cover the paper's
    motivating application mix: constant-rate and on/off voice
    (EF), Poisson transactional traffic (AF), and Pareto-bursty bulk
    transfer (best effort). All randomness comes from explicit
    generators, so runs are reproducible. *)

type registry

val registry : Mvpn_sim.Engine.t -> registry

val sink : registry -> Mvpn_net.Packet.t -> unit
(** Install as the CE/site local-delivery handler: looks up the
    packet's flow and records the delivery; unknown flows are ignored. *)

val collector : registry -> string -> Mvpn_qos.Sla.collector
(** Named collector, created on first use — one per traffic class. *)

val report : registry -> string -> Mvpn_qos.Sla.report
(** Report of a named collector (empty report if never created). *)

val labels : registry -> string list

type emit = int -> unit
(** Emit one packet of the given size, stamped with the current time. *)

val sender :
  registry -> net:Network.t -> src_node:int -> flow:Mvpn_net.Flow.t ->
  dscp:Mvpn_net.Dscp.t -> ?vpn:int -> ?cbq:Mvpn_qos.Cbq.t ->
  collector:Mvpn_qos.Sla.collector -> unit -> emit
(** A source: builds sequenced packets for [flow], marks them ([dscp]
    directly, or through [cbq] which may remark or police them), records
    the send with [collector], registers the flow for sink-side
    measurement, and injects at [src_node]. CBQ-policed packets count as
    sent but are never injected (they appear as loss — policed at the
    customer premises). *)

(** {2 Arrival processes} — each schedules [emit] calls on the engine
    between [start] and [stop] (both in seconds). *)

val cbr :
  Mvpn_sim.Engine.t -> start:float -> stop:float -> rate_bps:float ->
  packet_bytes:int -> emit -> unit

val poisson :
  Mvpn_sim.Engine.t -> Mvpn_sim.Rng.t -> start:float -> stop:float ->
  rate_pps:float -> packet_bytes:int -> emit -> unit

val onoff :
  Mvpn_sim.Engine.t -> Mvpn_sim.Rng.t -> start:float -> stop:float ->
  on_mean:float -> off_mean:float -> rate_bps:float -> packet_bytes:int ->
  emit -> unit
(** Exponential talkspurt/silence alternation; CBR at [rate_bps] while
    on — the standard voice model. *)

val pareto_bursts :
  Mvpn_sim.Engine.t -> Mvpn_sim.Rng.t -> start:float -> stop:float ->
  burst_rate:float -> mean_burst_bytes:float -> emit -> unit
(** Poisson burst arrivals; each burst is a Pareto-sized transfer
    (shape 1.5) emitted as back-to-back 1500-byte MTU packets
    — self-similar bulk data. *)
