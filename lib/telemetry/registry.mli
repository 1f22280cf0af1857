(** Process-wide metric registry.

    Instrumented modules create metrics by name at load time
    ([Registry.counter "lfib.swap"]) and keep the returned handle;
    look-ups after creation are never on the hot path. Exports render
    every registered metric sorted by name, as JSON or pretty text,
    together with the tail of the global {!Hop_trace} ring.

    A run owns its measurements: {!scoped} runs a function on the
    calling domain's zeroed cells and empty rings and returns what it
    measured as a {!snapshot}, then folds the earlier values back, so
    one run's totals never carry another's and a caller that
    accumulates across runs still can.

    Domain-safety: the name→handle table is shared (mutex-guarded
    registration), metric values are per-domain cells, and the trace /
    event rings are per-domain. Every read or reset acts on the calling
    domain's partials; a parallel harness takes {!snapshot} inside each
    worker domain and folds the results into the coordinating domain
    with {!absorb}. *)

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t
  | Series of Timeseries.t

val counter : string -> Counter.t
(** Get or create. @raise Invalid_argument if the name is registered
    with a different metric kind. *)

val gauge : string -> Gauge.t

val histogram : ?lo:float -> ?buckets:int -> string -> Histogram.t
(** [lo]/[buckets] apply only on first creation. *)

val series :
  ?capacity:int -> ?scope:Timeseries.scope -> string -> Timeseries.t
(** Bounded time series (see {!Timeseries}); [capacity]/[scope] apply
    only on first creation. *)

val trace : unit -> Hop_trace.t
(** The calling domain's hop-trace ring buffer. *)

val events : unit -> Event_log.t
(** The calling domain's structured event log (SLO transitions, link
    flaps, recompiles). Cleared by {!reset}; exported by {!to_json}. *)

val find_counter : string -> Counter.t option

val find_gauge : string -> Gauge.t option

val find_histogram : string -> Histogram.t option

val find_series : string -> Timeseries.t option

val counter_value : string -> int
(** 0 when absent — convenient for report code. *)

val names : unit -> string list
(** Sorted metric names. *)

val cardinal : unit -> int

val reset : unit -> unit
(** Zero every metric and clear the hop trace and event log, keeping
    registrations (instrumented modules hold direct handles). *)

type snapshot

val snapshot : unit -> snapshot
(** Capture every registered metric's current value. The hop trace and
    event log are forensic rings tied to one run and are not captured. *)

val absorb : snapshot -> unit
(** Merge the snapshot into the calling domain's cells: counters and
    gauges add, histograms merge bucket-wise, series merge by sample
    time (associative and commutative, so shard partials fold in any
    order into one deterministic total). Unconditional, like
    {!reset}. *)

val scoped : (unit -> 'a) -> 'a * snapshot
(** [scoped f] clears the calling domain's cells (every metric kind,
    the hop trace and the event log, as {!reset} does), runs [f] and
    snapshots what it measured. Then it {!absorb}s the pre-scope values
    back, also when [f] raises: afterwards every metric reads its
    pre-scope value plus the scope's, and the rings hold the scope's
    entries only. Scopes nest. A metric first registered inside the
    scope keeps the scope's value. *)

val snapshot_counter : snapshot -> string -> int
(** The counter value captured in the snapshot; 0 when absent. *)

val to_json : ?trace_events:int -> ?event_entries:int -> unit -> Json.t
(** One {!Json.envelope}: [{"schema":1,"counters":{...},"gauges":{...},
    "histograms":{...},"series":{...},"trace":[...],"events":[...]}].
    Each series renders as [{"scope":"sim"|"host","level":L,
    "samples":[[time,value],...]}]. [trace_events] bounds the trace
    tail (default 64); [event_entries] bounds the event tail
    (default 256). *)

val pp : ?trace_events:int -> Format.formatter -> unit -> unit
(** Pretty-printed dump; [trace_events] > 0 appends the trace tail. *)
