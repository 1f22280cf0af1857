(** Anti-replay sliding window (RFC 2401 §B).

    "The network drops a packet if it identifies the packet as being
    identical to one previously received" (§2.3). The receiver tracks a
    window of recent ESP sequence numbers; duplicates and packets older
    than the window are rejected. *)

type t

val create : unit -> t
(** A window of the 62 sequence numbers up to the highest accepted (RFC
    2401 suggests 64; the bitmap lives in one OCaml int, which caps it
    at 62). *)

type verdict = Accepted | Duplicate | Too_old

val check : t -> int -> verdict
(** [check t seq] accepts and records a fresh sequence number, or
    rejects it. Sequence numbers start at 1.
    @raise Invalid_argument if [seq < 1]. *)

val highest_seen : t -> int
(** 0 before any acceptance. *)
