(** Bounded time series: a fixed-capacity buffer of (sim_time, value)
    samples per named series, with automatic 2x decimation when full.

    Residency is O(capacity) regardless of run length: when an accepted
    sample would overflow the buffer, the even-indexed half is kept and
    the acceptance stride doubles, so after L decimations the series
    retains every 2^L-th recorded sample. The retained sample set is a
    pure function of the arrival sequence — samplers driven by the same
    schedule retain the same times in every domain, which is what makes
    the cross-domain {!absorb} merge line up sample-for-sample.

    Storage discipline matches {!Counter}: one shared handle, samples
    in domain-local state. {!add} is gated on {!Control.enabled};
    snapshot/absorb are harness operations and unconditional. *)

type t

(** [Sim] series hold deterministic simulation measurements and are
    safe to export byte-identically across shard counts; [Host] series
    hold host-dependent measurements (GC counters, wall time) and are
    excluded from determinism-gated exports such as [mvpn timeline]. *)
type scope = Sim | Host

val default_capacity : int
(** 512 samples. *)

val make : ?capacity:int -> ?scope:scope -> string -> t
(** [capacity] must be even and >= 2 (defaults {!default_capacity});
    [scope] defaults to [Sim]. Prefer {!Registry.series}, which
    registers the handle for export and reset. *)

val scope : t -> scope

val add : t -> time:float -> float -> unit
(** Record one sample in the calling domain's buffer (no-op while
    telemetry is disabled, like every metric write). Sample times are
    expected to be non-decreasing; the decimation stride drops all but
    every 2^level-th arrival once the buffer has filled level times. *)

val length : t -> int
(** Samples currently retained in the calling domain's buffer. *)

val level : t -> int
(** Number of decimations so far (stride = 2^level). *)

val get : t -> int -> float * float
(** [(time, value)] at index [i] in [0 .. length - 1], oldest first.
    @raise Invalid_argument when out of range. *)

val iter : t -> (float -> float -> unit) -> unit
(** [iter t f] applies [f time value] oldest-first. *)

val samples : t -> (float * float) array

val reset : t -> unit
(** Drop all samples and reset the stride (harness operation,
    unconditional). *)

type snapshot

val snapshot : t -> snapshot
(** Capture the calling domain's samples. *)

val absorb : t -> snapshot -> unit
(** Merge the captured samples into the calling domain's buffer: union
    keyed on exact sample time, values summed where times coincide.
    Associative and commutative, so shard partials fold in any order
    into one deterministic series. Inputs with identical time sets
    (samplers on the same schedule) merge within [capacity]; disjoint
    inputs are kept whole (bounded by K * capacity for K partials). *)

val pp : Format.formatter -> t -> unit
