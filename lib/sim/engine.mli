(** Discrete-event simulation engine.

    Time is a [float] in seconds. Events are thunks scheduled at absolute
    or relative times; the engine pops them in time order (FIFO among
    simultaneous events) and runs them, each of which may schedule more.
    All network behaviour — transmission, propagation, queue service,
    protocol timers — is expressed as events over one engine. *)

type t

type backend =
  | Binary_heap  (** {!Heap}: the original scheduler, kept as oracle. *)
  | Calendar  (** {!Calendar}: O(1) bucketed ring, the default. *)

val create : ?backend:backend -> unit -> t
(** [create ()] uses the {!Calendar} backend. Both backends implement
    the same [(time, insertion)] total order, so a simulation's event
    sequence — and every derived fingerprint — is identical under
    either; [Binary_heap] exists as the reference oracle for tests and
    for the seq-heap vs seq-calendar bench race. *)

val now : t -> float
(** Current simulation time, in seconds. *)

val clock : t -> floatarray
(** The engine's clock cell: slot 0 always holds {!now}. Per-packet
    readers in other modules (hop traces, creation stamps, SLA and SLO
    observers) take this cell and read the slot themselves, so the time
    crosses their calls unboxed under either build profile; a float
    returned by {!now} and passed on is boxed at every non-inlined
    call. Callers must never write it. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule e ~delay f] runs [f] at [now e +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** [schedule_at e ~time f] runs [f] at absolute [time].
    @raise Invalid_argument if [time] is in the past or not finite. *)

val schedule_at_cell : t -> floatarray -> (unit -> unit) -> unit
(** [schedule_at_cell e tcell f] is [schedule_at e ~time f] with [time]
    read from slot 0 of [tcell], so an absolute key crosses the call
    unboxed and becomes the event's exact key. The parallel runner
    schedules every cross-shard arrival this way. The cell is copied
    from, never retained. {!schedule_at} is a wrapper over this path.
    @raise Invalid_argument like {!schedule_at}. *)

val schedule_kind :
  t -> kind:Profile.kind -> delay:float -> (unit -> unit) -> unit
(** {!schedule}, tagged for the dispatch-cost ledger: while the
    engine's profiler is enabled, the per-kind scheduled count is
    bumped. One predictable branch otherwise. *)

val schedule_cell :
  t -> kind:Profile.kind -> floatarray -> (unit -> unit) -> unit
(** [schedule_cell e ~kind dcell f] is [schedule_kind e ~kind ~delay f]
    with [delay] read from slot 0 of [dcell]. A per-packet caller keeps
    the delay in a one-slot cell of its own, so it crosses the call
    unboxed (the [Calendar.push_at] idiom). {!schedule} and
    {!schedule_kind} are wrappers over this path. *)

val schedule_kind_at :
  t -> kind:Profile.kind -> time:float -> (unit -> unit) -> unit
(** {!schedule_at}, tagged like {!schedule_kind}. *)

val every :
  t ->
  kind:Profile.kind ->
  interval:float ->
  ?until:float ->
  (unit -> unit) ->
  unit -> unit
(** [every e ~kind ~interval ?until f] runs [f] every [interval]
    seconds, first at [now e +. interval], and returns a [stop]
    function. Each tick re-arms [interval] after itself, so tick times
    are the running sum [((now + i) + i) + ...], not [now + k * i].
    [f] runs while [now <= until] (default unbounded). The first tick
    after [until], and every tick after [stop], is a no-op that does
    not re-arm: with [until] a bare {!run} drains, leaving one
    trailing event past the horizon. Every tick is scheduled through
    {!schedule_kind} with [kind].
    @raise Invalid_argument if [interval] is not finite and positive
    (the re-arm would spin at one instant or never fire), or [until]
    is negative or NaN. *)

val profiler : t -> Profile.t
(** The engine's dispatch-cost ledger (see {!Profile}). Disabled at
    {!create}; enabling takes effect at the next run-window entry,
    which swaps the run loop for a profiled twin — the plain loop
    never tests the profiler. *)

val run : ?until:float -> t -> unit
(** Drain the event queue. With [until], stop once the next event would
    be strictly after [until] and advance the clock to [until]. Events
    scheduled exactly at [until] do run. *)

val step : t -> bool
(** Run exactly one event; [false] when the queue is empty. *)

val peek_time : t -> float option
(** Timestamp of the next pending event, without running it. *)

val run_before : t -> before:floatarray -> unit
(** Process every pending event with time strictly below [before.{0}],
    leaving events at or after it queued and [now] at the last
    processed event. The conservative parallel runner uses this to
    advance a shard through a safe window without claiming the window
    bound itself. The bound comes through the caller's cell, so the
    window boxes no float; the cell must not change during the call. *)

val pending : t -> int
(** Number of scheduled events not yet run. *)

val processed : t -> int
(** Number of events run since creation. *)

val stop : t -> unit
(** Make the current {!run} return after the event in progress; pending
    events stay queued. *)

(** {2 Batched telemetry}

    Inside a {!run}/{!run_before} window the engine's [sim.events] and
    [sim.scheduled] counters accumulate in plain fields and flush once
    at window exit, so the per-event cost is an int bump instead of a
    domain-local counter write. Outside a window, counter writes stay
    immediate. Hot-path instrumentation elsewhere (e.g. the network's
    per-packet counters) can join the same rhythm: check {!in_batch}
    to defer, and register the flush with {!on_flush}. *)

val in_batch : t -> bool
(** [true] while the engine is inside a [run]/[run_before] window. *)

val on_flush : t -> (unit -> unit) -> unit
(** [on_flush e f] registers [f] to run at every batch-window exit
    (including on exception escape), before the engine flushes its own
    counters. Hooks run in reverse registration order. *)
