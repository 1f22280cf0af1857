(** One-stop chaos harness: FRR + recovery + fault plan on a scenario.

    [mvpn chaos], [mvpn slo --chaos], [mvpn soak], bench E15 and E18
    and the property tests all run the same stack; this module is that
    stack, so a seed means the same fault timeline everywhere. {!arm}
    bolts the resilience machinery onto a built scenario before its
    workload — the runner's [prepare_replica] hook — and
    {!soak_replica} adds the soak's live SLO and auditor. Equal seeds
    give byte-identical {!summary_json}. *)

type t

val arm :
  ?events:int ->
  ?plan:Chaos.plan ->
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

val soak_storm :
  ?events:int -> seed:int -> duration:float ->
  (unit -> Mvpn_core.Scenario.t) -> Chaos.plan
(** The soak's storm: a {!Chaos.random_topology_plan} of [events]
    faults over [0, duration), seeded by [seed], over the POPs and core
    links of a throwaway [build ()] made with telemetry off. It holds
    no per-packet verdicts, so every replica of a sharded run can close
    over the same plan. *)

val soak_replica :
  ?storm:int * Chaos.plan ->
  ?audit:float * bool ->
  duration:float ->
  Mvpn_core.Scenario.t ->
  unit
(** Prepare one soak replica, in this order: [storm = (seed, plan)]
    {!arm}s FRR, IP fallback and recovery over [plan]; a live
    {!Mvpn_core.Scenario.attach_slo} engine with a private event log
    feeds the auditor's budget check; [audit = (interval, fail_fast)]
    starts {!Audit} until [duration + 5]. Every replica schedules the
    same events in the same order, so the soak is shard-invariant. *)

val scenario : t -> Mvpn_core.Scenario.t
val plan : t -> Chaos.plan
val frr : t -> Frr.t option

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
