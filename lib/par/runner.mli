(** The partitioned parallel simulation runner.

    Spawns one domain per shard, each holding a full replica of the
    scenario but executing only its owned nodes' events
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
    changes wall-clock, not results.

    Telemetry must be enabled ({!Mvpn_telemetry.Control.enable}) around
    either entry point; totals are counted through the registry. *)

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
  profile : bool;
      (** enable the engine's dispatch-cost ledger and publish
          [sim.profile.*] gauges after the run; {!run_sequential} only
          — shard wall times are not meaningfully mergeable (default
          [false]) *)
  prepare_replica : (Mvpn_core.Scenario.t -> unit) option;
      (** run on every replica — the sequential scenario, and each
          shard's — once, after the timeline sampler is armed and
          before the workload: where each [mvpn] traffic subcommand
          arms what it needs (accounting sinks, a live SLO and a
          failure schedule, {!Mvpn_resilience.Harness.arm}, the soak's
          storm and auditor). On a sharded run it must schedule the
          same events in the same order on every replica (e.g.
          {!Mvpn_resilience.Chaos.random_topology_plan}-based storms,
          never uid-dependent faults), or determinism across shard
          counts is forfeit (default [None]) *)
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
    both entry points build it, before any sampler, preparation or
    workload. *)

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
  registry_json : Mvpn_telemetry.Json.t;
      (** merged registry snapshot, captured {e before} the SLO replay
          so the counters object matches a sequential [mvpn stats] run
          byte for byte *)
  horizon : float;
}

val run_parallel : config -> outcome
(** @raise Invalid_argument if [config.shards < 1]. *)

val run_sequential : config -> outcome
(** Single-domain baseline on the identical build/workload path
    (ignores [config.shards]); totals are diffed against the registry
    state at entry, so a dirty registry does not skew them. *)
