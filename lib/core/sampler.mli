(** Streaming timeline sampler: a periodic engine tick that
    records bounded {!Mvpn_telemetry.Timeseries} points every
    [interval] sim-seconds — per-core-link utilization
    ([ts.link.<id>.util]), per-band queue depth and drop deltas
    ([ts.band.<b>.depth_pkts] / [.drops]), per-(vpn, band) good/bad
    delivery deltas for SLO burn derivation ([ts.slo.v<v>.b<b>.good] /
    [.bad]) and, host-scope, this domain's GC minor words
    ([ts.gc.minor_words]).

    Deltas are read from the always-on plain port/qdisc counters, not
    the batch-coalesced telemetry counters, so a mid-window sample is
    exact. In a partitioned run every shard starts its own sampler on
    its replica: non-owner replicas contribute exact zeros at every
    sample, so the absorbed merge equals the sequential series
    byte-for-byte (sim-scope series only — the GC series is host-scope
    and excluded from determinism-gated exports). *)

type t

val default_interval : float
(** 1 s of simulated time. *)

val start : ?interval:float -> ?until:float -> Scenario.t -> t
(** Register the series (idempotent) and schedule the first tick at
    [interval] through {!Mvpn_sim.Engine.every}; ticks run until
    [until] (default unbounded). Arm before the run starts.
    @raise Invalid_argument on a non-finite or non-positive interval
    or a negative/NaN [until]. *)

val observe_fate :
  t ->
  time:float -> vpn:int -> band:int -> dropped:bool -> latency:float ->
  unit
(** Feed one packet fate (the stream the runner's fate hook already
    produces). A fate is bad when dropped or later than the stock
    per-band objective's latency bound — the same classification
    {!Mvpn_telemetry.Slo.observe_delivery} applies — so the sampled
    good/bad deltas sum to the replayed SLO totals. *)

val burn :
  target:float ->
  good:(float * float) array ->
  bad:(float * float) array ->
  (float * float) array
(** Burn rate per sample, pairing [good] and [bad] by index (the shorter
    length wins): the bad fraction over the error budget [1 - target].
    0 where a sample saw no traffic or the target leaves no budget. *)

val burn_series : unit -> (string * (float * float) array) list
(** [ts.slo.v<v>.b<b>.burn] for every registered sim-scope good/bad
    pair, in name order, derived from the registry's series after any
    shard merge: the ratio is not summable across shards, the good/bad
    deltas it is computed from are. *)
