(** Security association: one direction of an IPSec tunnel.

    Carries the SPI, outbound sequence counter, inbound anti-replay
    window and usage accounting. A tunnel owns two SAs, one per
    direction. *)

type t

val create : spi:int -> t

val spi : t -> int

val next_seq : t -> int
(** Outbound: the next ESP sequence number (starts at 1, increments). *)

val check_replay : t -> int -> Replay.verdict
(** Inbound: run the anti-replay window. *)

val account : t -> bytes:int -> unit
val bytes_processed : t -> int
val packets_processed : t -> int
