(** Queue disciplines for an egress port: the per-hop behaviours.

    A discipline owns one packet queue ("band") per traffic class and a
    scheduler that picks which band sends next. The schedulers offered
    are the ones the DiffServ+MPLS architecture needs:

    - {b Strict priority}: the EF per-hop behaviour — lowest band index
      always wins; a congested low band starves (the ablation point).
    - {b WRR / DRR}: weighted sharing by packet count or by bytes
      (deficit round robin) — the AF classes.
    - {b WFQ}: start-time fair queueing with weighted virtual finish
      tags — the "granular SLA" scheduler of §3.1.

    Bands optionally run RED/WRED: the drop probability ramps with the
    EWMA of the backlog, with per-drop-precedence thresholds so that
    out-of-profile (remarked) packets die first. *)

type sched =
  | Strict
  | Wrr of int array  (** packets per round, one weight per band *)
  | Drr of int array  (** quantum in bytes per band *)
  | Wfq of float array  (** rate weights per band *)

type red_params = {
  ewma_weight : float;  (** averaging weight for the queue estimate *)
  thresholds : (float * float * float) array;
      (** per drop precedence 1..3: min threshold (bytes), max threshold
          (bytes), max drop probability *)
}

val default_wred : avg_capacity:float -> red_params
(** Conventional WRED tuning: precedence 1 protected up to 50–90% of
    [avg_capacity], precedence 2 up to 30–70%, precedence 3 up to
    20–50%. *)

type band_cfg = { capacity_bytes : int; red : red_params option }

val plain_band : int -> band_cfg
(** A tail-drop band with the given byte capacity. *)

type drop_reason = Tail_drop | Red_drop

type t

val create : ?rng:Mvpn_sim.Rng.t -> sched:sched -> band_cfg array -> t
(** @raise Invalid_argument on zero bands, a scheduler weight array of
    the wrong length, or non-positive weights/quanta. [rng] drives RED's
    probabilistic drops (defaults to a fixed-seed generator). *)

val fifo : capacity_bytes:int -> t
(** Single tail-drop band — the best-effort router. *)

val band_count : t -> int

val enqueue : t -> cls:int -> Mvpn_net.Packet.t -> (unit, drop_reason) result
(** Queue a packet on band [cls] (clamped to the last band). *)

val dequeue : t -> Mvpn_net.Packet.t option
(** Next packet per the scheduler; [None] when all bands are empty. *)

val dequeue_null : t -> Mvpn_net.Packet.t
(** [dequeue] without the option box: returns {!Mvpn_net.Packet.null}
    (compare with [==]) when all bands are empty. The port service
    loop calls this once per transmitted packet. *)

val is_empty : t -> bool

val backlog_bytes : t -> int
val backlog_packets : t -> int

type band_stats = {
  enqueued : int;
  dequeued : int;
  tail_dropped : int;
  red_dropped : int;
  bytes_sent : int;
}

val stats : t -> band_stats array
(** Per-band counters since creation. *)

type counter = Enqueued | Dequeued | Tail_dropped | Red_dropped

val band_counter : t -> band:int -> counter -> int
(** One field of [(stats t).(band)] without building the array — the
    allocation-free read the auditor's per-tick queue check makes.
    @raise Invalid_argument on a band out of range. *)
