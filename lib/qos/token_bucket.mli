(** Token bucket: the primitive under every rate limiter, meter and
    shaper in the QoS plane.

    Tokens are bytes; they refill continuously at [rate_bps / 8] bytes
    per second up to [burst_bytes]. Time is supplied by the caller (the
    simulation clock), so buckets are deterministic. *)

type t

val create : rate_bps:float -> burst_bytes:float -> t
(** A full bucket. @raise Invalid_argument on non-positive rate or burst. *)

val take : t -> now:float -> bytes:int -> bool
(** [take b ~now ~bytes] refills to [now] then consumes [bytes] tokens
    if available, returning whether the packet conformed. Non-conforming
    packets consume nothing. *)

val available : t -> now:float -> float
(** Token balance (bytes) after refilling to [now]. *)

val drain : t -> now:float -> bytes:int -> unit
(** Consume unconditionally, allowing the balance to go negative — used
    by meters that overdraw a secondary bucket. *)
