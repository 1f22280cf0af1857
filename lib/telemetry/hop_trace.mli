(** Per-packet hop-trace ring buffer.

    Every instrumented forwarding action (receive, transmit, deliver,
    drop) records an event keyed on the packet uid; the ring keeps the
    most recent [capacity] events, so the recent forwarding history of
    any packet can be reconstructed after the fact without unbounded
    memory. Recording is a no-op while {!Control} is disabled. *)

type event = {
  uid : int;  (** {!Mvpn_net.Packet.t} uid (-1 for none) *)
  time : float;  (** simulation time *)
  node : int;
  label : string;  (** action, e.g. ["rx"], ["tx"], ["drop:no-route"] *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 events.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val recorded : t -> int
(** Total events ever recorded (>= live entries once wrapped). *)

val record : t -> uid:int -> time:float -> node:int -> string -> unit
(** Record one event; interns [label] (a mutex and a table lookup), so
    per-hop callers intern their labels once and use {!record_code}. *)

val intern : string -> int
(** The code of a label, allocated on first use. Codes are process-wide
    and domain-safe: the same string gets the same code in every
    domain. *)

val record_code : t -> uid:int -> clock:floatarray -> node:int -> int -> unit
(** {!record} with a label code from {!intern} and the time read from
    slot 0 of [clock] (the simulation engine's clock cell): a handful
    of int and float stores, no allocation, under either build profile.
    A float argument would be boxed on every hop. *)

val trace : t -> uid:int -> event list
(** Chronological events still in the ring for one packet. Entries of
    other packets are skipped on their uid alone, so a trace of [k]
    hops allocates O(k) words, whatever the ring's size, and a miss
    allocates nothing. *)

val recent : t -> int -> event list
(** The last [n] events, oldest first. Only those [n] are built. *)

val iter_codes : (int -> int -> unit) -> t -> unit
(** [iter_codes f t] calls [f uid code] on every live entry, oldest
    first, with the label as its {!intern} code. No event record is
    built, so with a preallocated [f] the walk allocates nothing. *)

val clear : t -> unit

val pp_event : Format.formatter -> event -> unit
