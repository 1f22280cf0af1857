(** Last-value gauge (queue depth, utilization, table size). Mutation is
    a no-op while {!Control} is disabled.

    Domain-safe like {!Counter}: the value cell is domain-local, and
    [Registry.absorb] merges per-domain partials by addition (the
    gauges that accumulate across shards — accounting mirrors — are
    additive; purely last-value gauges are only ever set from one
    domain). *)

type t

val make : unit -> t
(** Bare gauge; {!Registry.gauge} is the usual entry point. *)

val set : t -> float -> unit

val value : t -> float

val reset : t -> unit
