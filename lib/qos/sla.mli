(** Service level agreements: specification, measurement, compliance.

    "By combining diffserv and MPLS, IP providers will be able to offer
    users granular Service Level Agreements with assured performance"
    (§3.1). A {!spec} states the promise; a {!collector} accumulates
    what one traffic aggregate actually experienced; {!check} compares
    the two. *)

type spec = {
  name : string;
  max_mean_delay : float option;  (** seconds *)
  max_p99_delay : float option;
  max_jitter : float option;  (** mean |Δ consecutive delays|, seconds *)
  max_loss : float option;  (** fraction in [0, 1] *)
  min_throughput_bps : float option;
}

val best_effort_spec : spec
(** No commitments — everything passes. *)

val voice_spec : spec
(** EF-class telephony: 150 ms mean, 200 ms p99, 30 ms jitter, 1% loss. *)

val transactional_spec : spec
(** AF-class business data: 300 ms mean, 500 ms p99, 5% loss. *)

type collector

val collector : unit -> collector

val on_send : collector -> clock:floatarray -> bytes:int -> unit
(** Records a send at the time in slot 0 of [clock] (the simulation
    engine's {!Mvpn_sim.Engine.clock}), read there so the time crosses
    the call unboxed. *)

val on_receive : collector -> clock:floatarray -> Mvpn_net.Packet.t -> unit
(** Records delay (the time in slot 0 of [clock] − creation time),
    jitter and goodput. Allocation-free on a known flow, under either
    build profile. *)

type report = {
  sent : int;
  received : int;
  reordered : int;
      (** arrivals overtaken in flight, per the per-flow sequence
          numbers — zero on a single LSP ("flows... typically take the
          same path", §5) *)
  bytes_received : int;
  duration : float;  (** first send to last receive *)
  mean_delay : float;
  p99_delay : float;
  max_delay : float;
  jitter : float;
  loss : float;  (** 1 − received/sent; 0 when nothing sent *)
  throughput_bps : float;
}

val report : collector -> report

val delay_samples : collector -> float array
(** The raw one-way delays recorded so far, sorted — for histograms and
    custom percentiles beyond what {!report} precomputes. *)

val pp_report : Format.formatter -> report -> unit

val check : spec -> report -> string list
(** Human-readable violations; empty means the SLA held. *)

val complies : spec -> report -> bool
