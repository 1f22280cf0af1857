(** The reference provider backbone used by examples and experiments.

    A ring of POPs with express chords (Figure 4's "MPLS deployment in a
    backbone"): every POP router is both P (core LSR) and PE (edge)
    capable, and customer sites attach to POPs over access links. Each
    POP owns a /32 loopback — the BGP next-hop the LDP FECs bind labels
    to. *)

type t

val build :
  ?pops:int ->
  ?core_bandwidth:float ->
  ?core_delay:float ->
  ?chords:(int * int) list ->
  ?into:Mvpn_sim.Topology.t ->
  ?loopback_octet:int ->
  unit -> t
(** Defaults: 12 POPs at 45 Mb/s (a DS3-era backbone) with 4 ms core
    hops. Default chords scale with the ring (a diameter plus quarter
    offsets; none below 5 POPs). [into] appends this backbone's nodes
    to an existing topology (multi-carrier internetworks);
    [loopback_octet] (default 255) disambiguates the 172.31.x.pop/32
    loopback range between carriers sharing one address space.
    @raise Invalid_argument if [loopback_octet] is outside [0, 255]. *)

val topology : t -> Mvpn_sim.Topology.t

val pops : t -> int array
(** POP node ids, ring order. *)

val pop_count : t -> int

val loopback : t -> pop:int -> Mvpn_net.Prefix.t
(** The /32 loopback prefix of a POP (by array index).
    @raise Invalid_argument on an unknown index. *)

val pop_of_node : t -> int -> int option
(** Reverse lookup: which POP index a node id is, if any. *)

val attach_site :
  ?access_bandwidth:float ->
  t -> id:int -> name:string -> vpn:int -> prefix:Mvpn_net.Prefix.t ->
  pop:int -> Site.t
(** Create a CE node, connect it to the POP (default 2 Mb/s access at
    1 ms) and return the site record. Call before {!Network.create} so
    the CE's links get ports. *)

val sites : t -> Site.t list
(** All sites attached so far, in attachment order. *)
