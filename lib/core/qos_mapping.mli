(** End-to-end QoS mapping (§5).

    "The network edge will then map the CPE-specified DiffServ/ToS
    service level specification into the QoS field of the MPLS header,
    providing a way to protect the service level definition on an
    end-to-end basis."

    This module fixes the class structure every hop agrees on:

    - 4 forwarding bands: 0 = EF + network control, 1 = AF3/AF4
      (business-critical), 2 = AF1/AF2 (assured bulk), 3 = best effort;
    - the packet→band function, which reads the MPLS EXP bits when the
      packet is labelled and the visible DSCP otherwise — so a router
      treats labelled and unlabelled traffic consistently, and an
      encrypted tunnel without ToS copy lands in band 3 by construction;
    - per-link queue-discipline factories for the three policies the
      experiments compare. *)

type policy =
  | Best_effort  (** one FIFO; the §2.2 status quo *)
  | Diffserv of Mvpn_qos.Queue_disc.sched
      (** classful PHBs with the given scheduler across the 4 bands *)

val band_count : int
(** 4. *)

val band_of_exp : int -> int
val band_of_dscp : Mvpn_net.Dscp.t -> int

val band_of_packet : Mvpn_net.Packet.t -> int
(** EXP bits if labelled, visible DSCP otherwise. *)

val band_name : int -> string

val default_diffserv_sched : Mvpn_qos.Queue_disc.sched
(** Strict priority for band 0 is approximated by a heavily weighted
    WFQ (LLQ-like without starvation): weights 8 : 4 : 2 : 1. *)

val strict_sched : Mvpn_qos.Queue_disc.sched
(** True strict priority — the starvation ablation. *)

val make_qdisc :
  ?rng:Mvpn_sim.Rng.t -> ?wred:bool -> policy ->
  Mvpn_qos.Queue_disc.t
(** A fresh discipline for one egress port. Its 256 KiB buffer is
    split across bands under [Diffserv]; [wred] (default true) arms
    WRED on the AF bands. *)

val default_objective : int -> Mvpn_telemetry.Slo.spec
(** The stock SLO for a band, aligned with {!Mvpn_qos.Sla}'s templates:
    EF 200 ms p99 / 1% loss at target 0.99; AF-hi 500 ms / 5% at 0.98;
    AF-lo 1 s / 10% at 0.95; BE only loss 50% / availability 0.5 at
    target 0.5. *)

val classify : policy -> Mvpn_net.Packet.t -> int
(** The port classifier for a policy: always band 0 under
    [Best_effort]. *)

val mark_exp_from_dscp : Mvpn_net.Packet.t -> unit
(** Ingress-PE marking: copy the DSCP-derived class into the EXP bits
    of every label on the stack (no-op on unlabelled packets). *)
