(** The partitioned parallel simulation runner.

    Spawns one domain per shard, each holding a full replica of the
    scenario, armed by {!replica} exactly as the sequential run's, but
    executing only its owned nodes' events
    (see {!Shard}), synchronized conservatively through {!Clock} and
    exchanging cut-link packets through {!Exchange}. After the domains
    join, per-shard telemetry snapshots merge associatively into the
    calling domain's registry cells, post-horizon cross-shard packets
    are re-scheduled for bookkeeping parity, and the time-sorted merge
    of every shard's packet fates replays into one SLO engine.

    The headline invariant: for a given config, {!run_parallel} at any
    shard count and {!run_sequential} produce identical delivered /
    dropped / scheduled / executed-event totals, identical per-class
    sent / received sums and identical SLO conformance — partitioning
    changes wall-clock, not results. Events that every replica runs —
    the sampler's ticks and whatever [prepare_replica] schedules — are
    the exception: they count once per replica in the scheduled and
    executed totals, so such a run compares on its traffic (delivered,
    dropped, classes, SLO) and its merged sim-scope series.

    A run owns its measurements: both entry points run inside one
    {!Mvpn_telemetry.Registry.scoped}, so every total, the outcome's
    [registry] and its [registry_json] hold this run alone, whatever
    earlier runs left in the process. Afterwards the calling domain's
    cells read their earlier values plus this run's.

    Either entry point owns the whole run: it turns telemetry on for
    its scope (totals are counted through the registry), restoring the
    caller's setting afterwards; closes every replica at the horizon
    ({!Mvpn_core.Scenario.finish}); and hands the replicas back in its
    outcome. *)

type config = {
  shards : int;  (** requested; clamped to the region count *)
  pops : int;
  vpns : int;
  sites_per_vpn : int;
  policy : Mvpn_core.Qos_mapping.policy;
  use_te : bool;
  load : float;
  duration : float;  (** workload seconds; the engines run 5 s longer *)
  seed : int;
  core_delay : float option;
      (** POP–POP propagation override; [Some 0.] forces the
          epoch-barrier fallback *)
  backend : Mvpn_sim.Engine.backend;
      (** event-queue backend for every replica engine (default
          {!Mvpn_sim.Engine.Calendar}); results are backend-invariant,
          wall-clock is not *)
  sample_interval : float option;
      (** when set, arm a {!Mvpn_core.Sampler} timeline sampler at this
          sim-second interval — on the sequential replica, and on every
          shard replica of a parallel run, whose sim-scope series merge
          to the sequential series byte-for-byte (default [None]) *)
  prepare_replica : Mvpn_core.Scenario.t -> unit;
      (** run once on every replica — the sequential scenario, and
          each shard's — at its place in {!replica}'s order: where
          each [mvpn] traffic subcommand arms what it needs
          (accounting sinks, a live SLO, a span sampler and a failure
          schedule, {!Mvpn_resilience.Harness.arm}, the soak's storm
          and auditor), and where E16 enables the engine's
          dispatch-cost ledger ({!Mvpn_sim.Profile.enable}), which the
          sequential path then publishes as [sim.profile.*] gauges. On
          a sharded run it must schedule the same events in the same
          order on every replica (e.g.
          {!Mvpn_resilience.Chaos.random_topology_plan}-based storms,
          never uid-dependent faults), or determinism across shard
          counts is forfeit (default [ignore]) *)
  diurnal : int option;
      (** [Some segments] replaces the flat mixed workload with
          {!Mvpn_core.Scenario.add_diurnal_workload}: a raised-cosine
          day/night load envelope peaking at [load], in [segments]
          windows over [duration] (default [None]) *)
}

val default_config : config
(** The [mvpn] demo defaults: 4 shards, 12 POPs, 2 VPNs × 4 sites,
    DiffServ policy, load 0.9, 30 s, seed 11. *)

val build : config -> Mvpn_core.Scenario.t
(** One replica of the config's scenario — an MPLS deployment of its
    shape, policy, TE switch, seed, core delay and backend — exactly as
    {!replica} builds it, before any sampler, preparation or
    workload. *)

val replica :
  config ->
  canonical:bool ->
  only:(Mvpn_core.Site.t -> Mvpn_core.Site.t -> bool) ->
  Mvpn_core.Scenario.t * Fatelog.t
(** One replica armed to run, as both entry points arm every replica,
    in this order:
    + {!build} it;
    + unless [canonical], zero this domain's metric cells
      ({!Mvpn_telemetry.Registry.reset}), so that the build's counters
      (label allocations, FIB installs) survive from one replica only
      when shards' cells merge — the sequential run and shard 0 are
      canonical;
    + start the timeline sampler, when [sample_interval] is set
      ({!Mvpn_core.Sampler.start}, until the horizon);
    + run [prepare_replica];
    + install the fate log as the network's fate hook, with the
      sampler's tap ({!Mvpn_core.Sampler.observe_fate}) in front of it;
    + arm the workload (mixed, or diurnal when [diurnal] is set) over
      {!Mvpn_core.Scenario.default_pairs}, starting sources only for
      the pairs [only] accepts; every pair still draws from the RNG, so
      the armed pairs' substreams do not depend on [only].

    Events scheduled at equal times run in scheduling order, so this
    order is what keeps a sampler tick, a fault [prepare_replica]
    schedules and the workload's first packets in the same rank at
    every shard count. Returns the replica and the log its fates are
    recorded into. *)

type outcome = {
  shards : int;  (** effective shard count *)
  sizes : int array;  (** nodes owned per shard *)
  cut_links : int;
  lookahead : bool;  (** false when the barrier fallback ran *)
  delivered : int;
  dropped : int;
  events : int;  (** executed simulation events, all shards *)
  scheduled : int;  (** scheduled events, including leftover parity *)
  exchanged : int;  (** packets carried across shards *)
  leftover : int;  (** cross-shard packets arriving past the horizon *)
  overflow : int;  (** exchange soft-bound overflows *)
  classes : (string * int * int) list;
      (** per service class: label, sent, received *)
  slo : Mvpn_telemetry.Slo.t;  (** replayed conformance engine *)
  registry : Mvpn_telemetry.Registry.snapshot;
      (** everything this run measured (shards merged), the source of
          every total above *)
  registry_json : Mvpn_telemetry.Json.t;
      (** the same run's registry rendered inside its scope (the
          trace tail left out), {e before} the SLO replay, so the
          counters object matches a sequential [mvpn stats] run byte
          for byte. At [shards >= 2] its ["events"] list is empty:
          each shard records events into its own domain's log, and
          those logs are not merged *)
  replicas : Mvpn_core.Scenario.t array;
      (** the run's replicas, closed at the horizon, in shard order;
          one for a sequential run, which the reports that read a
          scenario (class SLAs, a live SLO, spans) read. Keeping an
          outcome keeps its replicas live *)
  horizon : float;
}

val run_parallel : config -> outcome
(** Each shard closes its replica at the horizon
    ({!Mvpn_core.Scenario.finish}). When the effective shard count is 1
    — [config.shards = 1], or the partition clamps it to 1 — this is
    {!run_sequential}, event log included.
    @raise Invalid_argument if [config.shards < 1].
    @raise Failure naming every ledger term if a shard's books do not
    balance or its live count is negative. *)

val run_sequential : config -> outcome
(** Single-domain baseline on one canonical {!replica} (ignores
    [config.shards]), run with {!Mvpn_core.Scenario.run} to the
    horizon. Then it publishes the engine's dispatch-cost ledger
    ({!Mvpn_sim.Profile.publish}) if [prepare_replica] enabled it.
    @raise Failure as {!run_parallel}. *)
