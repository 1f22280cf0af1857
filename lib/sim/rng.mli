(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic element of the simulation — arrival processes,
    packet sizes, topology generation — draws from an explicit [t] so
    that a run is a pure function of its seeds and experiments are
    exactly reproducible. *)

type t

val create : int -> t
(** [create seed] is a fresh generator; equal seeds give equal streams. *)

val fork : t -> t
(** [fork r] derives an independent generator from [r], advancing [r].
    Use one fork per traffic source so adding a source does not perturb
    the others' streams. *)

val split : t -> int -> t
(** [split r i] is the [i]-th deterministic substream of [r]'s current
    position, without advancing [r]: the same [(r, i)] always yields
    the same stream, and distinct indices yield decorrelated streams.
    Use one substream per shard of a partitioned run so the assignment
    of work to domains never perturbs the draws. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int r bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in r lo hi] is uniform in [lo, hi] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float r x] is uniform in [0, x). *)

val uniform : t -> float
(** Uniform in [0, 1). *)

val uniform_cell : t -> floatarray -> unit
(** [uniform_cell r cell] writes the next {!uniform} draw into slot 0
    of [cell]: the same draw, handed over unboxed, so a warmed draw
    allocates nothing under either build profile. *)

val bool : t -> float -> bool
(** [bool r p] is [true] with probability [p]. *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given rate (mean [1 /. rate]).
    @raise Invalid_argument if [rate <= 0]. *)

val exponential_cell : t -> rate:float -> floatarray -> unit
(** {!exponential}, written into slot 0 of the cell (see
    {!uniform_cell}). The traffic generators draw their inter-arrival
    delays this way, straight into the engine's delay cell. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto variate: heavy-tailed burst/file sizes.
    @raise Invalid_argument if [shape <= 0] or [scale <= 0]. *)

val pareto_cell : t -> shape:float -> scale:float -> floatarray -> unit
(** {!pareto}, written into slot 0 of the cell (see {!uniform_cell}). *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian variate (Box–Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
