(** Transport-level flow identity (the classic 5-tuple).

    Flows are the unit the CPE classifier and the SLA accounting work on:
    a flow is marked into a service class at the customer edge, and
    per-flow delay/jitter/loss statistics are what the SLA compliance
    checks measure. *)

type proto = Tcp | Udp | Icmp | Esp | Gre

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  proto : proto;
  src_port : int;
  dst_port : int;
}

val make :
  ?proto:proto -> ?src_port:int -> ?dst_port:int -> Ipv4.t -> Ipv4.t -> t
(** [make src dst] builds a flow; [proto] defaults to [Udp], ports to 0. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val proto_to_string : proto -> string

val reverse : t -> t
(** [reverse f] swaps source and destination address and port. *)
