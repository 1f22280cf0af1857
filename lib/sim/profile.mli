(** Engine self-profiler: the dispatch-cost ledger.

    Splits per-event wall time into pop / handler / telemetry-flush
    buckets and counts scheduled events per handler kind. Every
    {!Engine.t} owns one ledger, disabled by default; while disabled
    the engine's run loops carry no profiling branch or clock read, so
    the profiler is allocation- and cost-free when off. Enable it with
    [Profile.enable (Engine.profiler e)] before the run.

    Wall-time numbers are host-dependent, so {!publish} exports gauges
    only (never counters — counter totals are gated byte-identical
    across shard counts). *)

type t

(** {2 Handler kinds}

    A kind tags a family of event closures (["port.tx"],
    ["traffic.src"], ...). Register once at module-init time, then
    schedule through {!Engine.schedule_kind}. Counting happens at
    schedule time — a drained run executes exactly what it schedules,
    so scheduled-per-kind equals executed-per-kind for whole-run
    profiles without storing tags in the queue or wrapping closures. *)

type kind

val register_kind : string -> kind
(** Get or create the process-wide kind for [name]. *)

val kind_names : unit -> (string * kind) list
(** All registered kinds, in registration order. *)

(** {2 Ledger} *)

val create : unit -> t
(** A fresh, disabled ledger. {!Engine.create} makes one per engine. *)

val enabled : t -> bool

val enable : t -> unit
(** Takes effect at the next run-window entry. *)

val disable : t -> unit

val reset : t -> unit
(** Zero every bucket and kind count. *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds as a native int. No allocation. *)

val note_event : t -> pop_ns:int -> handler_ns:int -> unit
(** Engine hook: account one executed event. *)

val note_pop : t -> int -> unit
(** Engine hook: account pop time with no executed event (the
    unproductive final pop of a drained window). *)

val note_flush : t -> int -> unit
(** Engine hook: account one batch-window telemetry flush. *)

val note_kind : t -> kind -> unit
(** Engine hook: account one scheduled event of [kind]. *)

val pop_seconds : t -> float
(** Wall time spent popping events off the queue. *)

val handler_seconds : t -> float
(** Wall time spent inside event closures. *)

val flush_seconds : t -> float
(** Wall time spent in batch-window telemetry flushes. *)

val events : t -> int
(** Events accounted by {!note_event}. *)

val kind_count : t -> kind -> int

val publish : t -> unit
(** Export the ledger as [sim.profile.*] gauges: [pop_s], [handler_s],
    [flush_s], [events] and [kind.<name>] per registered kind. Forces
    telemetry on for the writes (harness operation). *)
