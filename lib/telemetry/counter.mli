(** Monotonic event counter. Mutation is a no-op while {!Control} is
    disabled.

    Domain-safe: the handle is shared, but the count lives in
    domain-local storage, so domains bump private partials and never
    lose increments. The handle is immutable: every access resolves the
    calling domain's cell with [Domain.DLS.get] and writes only that
    cell, so domains bumping one counter at once share no written
    cache line. [value]/[reset] act on the calling domain's
    partial; partials are combined with [Registry.snapshot] (taken in
    the owning domain) + [Registry.absorb] (counters add). A run
    counts from zero in its own [Registry.scoped], never by
    differencing snapshots. *)

type t

val make : unit -> t
(** Bare counter; {!Registry.counter} is the usual entry point. *)

val incr : t -> unit

val add : t -> int -> unit
(** [add t n] bumps by [n] (e.g. bytes forwarded). *)

val set : t -> int -> unit
(** [set t n] overwrites the count — for counters mirroring an
    always-on authoritative source (e.g. the network's per-reason drop
    table), so the exported value cannot drift from the source when
    telemetry is toggled mid-run. *)

val value : t -> int

val reset : t -> unit
