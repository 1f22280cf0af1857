(** Path-vector exterior routing (BGP-like).

    A small BGP: speakers belong to autonomous systems, peer over
    configured sessions, advertise IPv4 prefixes with an AS-path, and
    apply the standard loop check (reject routes whose AS-path already
    contains the local AS) and decision process (longest prefix is the
    FIB's job; among candidates for one prefix: highest local-pref, then
    shortest AS-path, then lowest peer id). Propagation runs in
    synchronous rounds until quiescent.

    This is the "cooperative service provider boundaries" substrate of
    §5: VPNs spanning multiple carriers exchange reachability over eBGP
    while each carrier runs its own IGP. *)

type t

val create : unit -> t

val add_speaker : t -> asn:int -> int
(** Returns the new speaker's id. *)

val peer : t -> int -> int -> unit
(** Create a bidirectional session. Sessions between speakers of the
    same AS are iBGP (routes learned from one iBGP peer are not
    re-advertised to another — the full-mesh rule); different AS, eBGP.
    @raise Invalid_argument on unknown speakers, self-peering or a
    duplicate session. *)

val originate : t -> int -> Mvpn_net.Prefix.t -> unit
(** Speaker locally originates a prefix. *)

val run : t -> int
(** Propagate to quiescence; returns the number of rounds. *)

val messages_sent : t -> int
(** Cumulative UPDATE count across all {!run} calls. *)

type route = {
  prefix : Mvpn_net.Prefix.t;
  as_path : int list;  (** nearest AS first; [] for local routes *)
  learned_from : int;  (** speaker id; -1 for local routes *)
  local_pref : int;
}

val best_routes : t -> int -> route list
(** A speaker's selected best route per prefix, in prefix order. *)

val lookup : t -> int -> Mvpn_net.Ipv4.t -> route option
(** Longest-prefix match over a speaker's best routes. *)

val set_local_pref : t -> int -> neighbor:int -> int -> unit
(** Policy knob: local-pref applied to routes [speaker] learns from
    [neighbor]. Takes effect on routes processed in later rounds. *)
