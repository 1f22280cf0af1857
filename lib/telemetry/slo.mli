(** Streaming SLO engine: per-(vpn, band) objectives with sliding
    windows, error budgets and multi-window burn-rate alerts.

    Declare an objective per (vpn, class band), then feed it deliveries
    and drops from the forwarding path. Time is bucketed (1 s of
    simulation time); closing a bucket re-evaluates conformance:

    - {b latency}: p99 over the fast window vs the objective's bound;
    - {b loss}: drop ratio over the fast window vs the bound;
    - {b availability}: fraction of traffic-carrying seconds in the
      slow window that were not total blackouts, vs the bound.

    Dimension transitions fire [Slo_violation] / [Slo_recovered]
    events; the burn-rate alert fires when {e both} the fast (5 s) and
    slow (60 s) windows consume error budget faster than twice the
    sustainable rate, and clears when the fast window cools — the
    standard multi-window, multi-burn-rate recipe, on simulation time.

    A packet is {e good} when delivered within the latency bound;
    drops and late deliveries spend error budget. All observation
    entry points are no-ops while {!Control} is disabled. *)

type t

type spec = {
  target : float;  (** required good fraction, e.g. [0.99] *)
  latency_p99 : float option;
      (** seconds; doubles as the per-packet goodness bound *)
  loss_ratio : float option;
  availability : float option;  (** min fraction of available seconds *)
}

val spec :
  ?latency_p99:float -> ?loss_ratio:float -> ?availability:float ->
  float -> spec
(** [spec target] with optional dimension bounds.
    @raise Invalid_argument unless [0 < target < 1]. *)

val create : ?events:Event_log.t -> unit -> t
(** 1 s buckets, a 5-bucket fast window, a 60-bucket slow window, burn
    threshold 2.0, and 5 samples minimum before a window judges latency
    or loss. Events go to [events] (default: the global
    {!Registry.events} log). An engine with its own [events] log is
    private: its transitions do not add to the global [slo.violation],
    [slo.recovered] and [slo.alert_*] counters, so those count exactly
    what the global log records. *)

val declare : t -> vpn:int -> band:int -> spec -> unit
(** Register an objective; re-declaring an existing (vpn, band) is
    ignored. *)

val observe_delivery :
  t -> vpn:int -> band:int -> time:float -> latency:float -> unit
(** Record a delivery for the objective (no-op when none is declared
    for the key). Advances window time as a side effect. *)

val observe_drop : t -> vpn:int -> band:int -> time:float -> unit

val observe_delivery_cell :
  t -> vpn:int -> band:int -> clock:floatarray -> latency:floatarray ->
  unit
(** {!observe_delivery} with the time read from slot 0 of [clock] (the
    simulation engine's clock cell) and the latency from slot 0 of
    [latency]: the per-delivery entry point, which crosses the call
    with no float boxed. *)

val observe_drop_cell :
  t -> vpn:int -> band:int -> clock:floatarray -> unit
(** {!observe_drop} with the time read from slot 0 of [clock]. *)

val advance : t -> time:float -> unit
(** Close out buckets up to [time] on every objective — call at end of
    run so the final seconds are evaluated (observations only advance
    their own objective). *)

(** {2 Reporting} *)

type report = {
  vpn : int;
  band : int;
  target : float;
  total : int;  (** cumulative packets observed *)
  bad : int;  (** cumulative drops + late deliveries *)
  drops : int;
  budget_allowed : float;  (** [(1 - target) * total] *)
  budget_spent : float;
  budget_remaining : float;  (** fraction of budget left, in [0, 1] *)
  latency_p99 : float;  (** last evaluated fast-window p99 *)
  loss_ratio : float;
  availability : float;
  burn_fast : float;
  burn_slow : float;
  violations : string list;  (** currently-violated dimensions *)
  alerting : bool;
  in_budget : bool;
}

val reports : t -> report list
(** Sorted by (vpn, band). *)

val in_budget : t -> bool
(** All objectives within cumulative error budget. *)

val violation_count : t -> int
(** [slo_violation] entries still live in the engine's event log. *)

val report_to_json : report -> Json.t

val to_json : t -> Json.t
(** JSON array of reports. *)

val publish_gauges : ?prefix:string -> t -> unit
(** Mirror each report into registry gauges
    [<prefix>.vpn<V>.band<B>.{budget_remaining,burn_fast,burn_slow,
    in_budget}] (prefix default ["slo"]). *)

val pp : Format.formatter -> t -> unit
