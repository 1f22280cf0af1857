(** Log-bucketed histogram for latencies and sizes.

    Buckets are powers of two above a configurable floor, so recording
    is O(1) with no per-sample allocation, and quantiles (p50/p90/p99)
    are estimated by interpolating inside the crossing bucket — bounded
    relative error, clamped to the exact observed min/max. Recording is
    a no-op while {!Control} is disabled.

    Domain-safe like {!Counter}: bucket geometry is shared and
    immutable, mutable state is domain-local and resolved with
    [Domain.DLS.get] on every access, so an observation writes nothing
    another domain reads; merge per-domain partials with
    {!snapshot} + {!absorb}. *)

type t

val make : ?lo:float -> ?buckets:int -> unit -> t
(** [make ()] with bucket 0 starting at [lo] (default [1e-9], fitting
    sub-nanosecond to multi-hour latencies in the default 96 buckets).
    {!Registry.histogram} is the usual entry point.
    @raise Invalid_argument if [lo <= 0] or [buckets < 1]. *)

val observe : t -> float -> unit
(** Allocation-free for an already boxed value. *)

val observe_cell : t -> floatarray -> unit
(** [observe_cell t cell] is [observe t (Float.Array.get cell 0)], with
    the value crossing the call unboxed: allocation-free under either
    build profile for a value computed by the caller. The per-delivery
    sojourn histograms are fed this way. *)

val bucket_index : t -> float -> int
(** The bucket {!observe} files a value in: [floor (log2 (v /. lo))]
    clamped to [0, buckets - 1]. Values below [lo] and NaN land in
    bucket 0; +infinity, and any value whose ratio to [lo] overflows,
    in the top bucket. *)

val observe_int : t -> int -> unit
(** Integer convenience (trie depths, byte sizes); the int→float
    conversion is skipped entirely while telemetry is disabled. *)

val count : t -> int

val sum : t -> float

val mean : t -> float

val min_value : t -> float

val max_value : t -> float
(** Exact observed extrema (0 when empty). *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]; 0 when empty.
    @raise Invalid_argument outside [0, 1]. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float

val reset : t -> unit

type snapshot

val snapshot : t -> snapshot
(** Capture counts and extrema for a later {!absorb}. *)

val absorb : t -> snapshot -> unit
(** Merge the snapshot into the histogram: bucket counts and totals
    add, extrema widen. Associative and commutative, so per-domain
    partials can be folded in any order. Unconditional, like {!reset}
    (a harness operation, not instrumentation). A snapshot from a
    histogram with a different bucket count merges what fits. *)
