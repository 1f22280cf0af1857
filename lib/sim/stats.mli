(** Measurement plane: running moments, exact percentiles and
    histograms. Time series live in {!Mvpn_telemetry.Timeseries}.

    The SLA compliance machinery (delay bounds, jitter, loss ratios) is
    built on these; they never influence forwarding. *)

(** Running mean/variance in one pass (Welford's algorithm), with min
    and max. Constant space — used for per-class delay accounting that
    may see millions of packets. Adding a sample allocates nothing. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val add_cell : t -> floatarray -> unit
  (** [add_cell s cell] adds [Float.Array.get cell 0]: a per-packet
      caller keeps the sample in a one-slot cell so it crosses the call
      unboxed. *)

  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance (the n−1 estimator, matching what
      {!merge}'s parallel combination preserves); 0 with fewer than two
      samples. *)

  val stddev : t -> float
  (** Square root of {!variance}. *)

  val min : t -> float
  (** 0 when empty, like {!mean} — never a non-finite sentinel. *)

  val max : t -> float
  (** 0 when empty, like {!mean} — never a non-finite sentinel. *)

  val merge : t -> t -> t
  (** Combine two summaries as if all samples were added to one. The
      result is fresh: it shares no state with either input. *)
end

(** Exact percentiles over a stored sample set. Linear space; use for
    bounded-cardinality measurements (per-flow delays). Samples are
    sorted in place, in [Float.compare] order, when a percentile is
    read after an [add]; neither the adds nor the sort allocate. *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val add_cell : t -> floatarray -> unit
  (** [add_cell s cell] adds [Float.Array.get cell 0], like
      {!Summary.add_cell}. *)

  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile s q] for [q] in [0, 1], by linear interpolation
      between order statistics. 0 when empty. O(n log n) worst case
      after an [add], O(1) otherwise.
      @raise Invalid_argument if [q] is outside [0, 1]. *)

  val median : t -> float
  val mean : t -> float
  val to_array : t -> float array
  (** A sorted copy of the samples. *)
end
