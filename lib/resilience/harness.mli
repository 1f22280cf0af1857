(** One-stop chaos harness: scenario + FRR + recovery + fault plan.

    [mvpn chaos], [mvpn slo --chaos], bench E15 and the property tests
    all run the same stack; this module is that stack, so a seed means
    the same fault timeline everywhere. {!arm} bolts the resilience
    machinery onto an existing scenario (the [slo --chaos] path);
    {!build} also constructs the scenario and its mixed workload (the
    [mvpn chaos] path). Equal seeds give byte-identical
    {!summary_json}. *)

type t

val arm :
  ?events:int ->
  ?plan:Chaos.plan ->
  ?recovery_config:Recovery.config ->
  frr:bool ->
  fallback:bool ->
  seed:int ->
  duration:float ->
  Mvpn_core.Scenario.t ->
  t
(** Arm IP fallback, facility-backup FRR over every core link (when
    [frr]), backoff-driven recovery whose repair burst reconverges the
    control plane and re-plumbs bypasses, and a seeded {!Chaos.plan}
    of [events] faults (default 12) over [0, duration). An explicit
    [plan] (e.g. one parsed back from {!Chaos.plan_of_json}, or a
    sharding-safe {!Chaos.random_topology_plan}) replaces the seeded
    draw; session-drop refreshes are still scheduled over it. Does not
    add workload and does not run.
    @raise Invalid_argument if the scenario has no MPLS deployment. *)

val build :
  ?pops:int ->
  ?vpns:int ->
  ?sites_per_vpn:int ->
  ?events:int ->
  ?recovery_config:Recovery.config ->
  ?load:float ->
  frr:bool ->
  fallback:bool ->
  seed:int ->
  duration:float ->
  unit ->
  t
(** {!Mvpn_core.Scenario.build} an MPLS deployment (diffserv policy,
    no TE), {!arm} it, and add the stock mixed workload at [load]
    (default 0.5) between consecutive site pairs. *)

val run : t -> unit
(** Drive the engine [duration] plus a 5 s drain, closing out SLO
    windows if one is attached. *)

val scenario : t -> Mvpn_core.Scenario.t
val plan : t -> Chaos.plan
val frr : t -> Frr.t option
val recovery : t -> Recovery.t

type port_totals = {
  port_offered : int;
  port_queue : int;
  port_link_down : int;
  port_fault : int;
}

val port_totals : t -> port_totals
(** Terminal port fates summed over every link. *)

val summary_json : t -> Mvpn_telemetry.Json.t
(** One JSON envelope: seed, run duration, the full fault plan, delivered
    count, the per-reason drop table, port fates, every [resilience.*]
    counter and typed-event counts. Deterministic — same seed, same bytes. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable rendering of the same facts. *)
