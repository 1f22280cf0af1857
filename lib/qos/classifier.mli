(** Multifield packet classification.

    An ordered rule list; the first matching rule's action wins. Rules
    match on the fields a router can actually see: the classifiable
    5-tuple (absent once ESP has encrypted the inner header — the C4
    failure mode) and the visible DSCP. A rule with no predicates
    matches everything, so a trailing default is just an empty rule. *)

type 'a rule

val rule :
  ?src:Mvpn_net.Prefix.t ->
  ?dst:Mvpn_net.Prefix.t ->
  ?proto:Mvpn_net.Flow.proto ->
  ?src_port:int * int ->
  ?dst_port:int * int ->
  ?dscp:Mvpn_net.Dscp.t ->
  'a -> 'a rule
(** Port ranges are inclusive. *)

type 'a t

val create : 'a rule list -> 'a t
(** Rules in priority order. *)

val classify : 'a t -> Mvpn_net.Packet.t -> 'a option
(** First matching rule's action. Rules with 5-tuple predicates cannot
    match a packet whose classifiable flow is hidden by encryption;
    DSCP-only rules still can (they read the visible header). *)

val classify_flow :
  'a t -> ?dscp:Mvpn_net.Dscp.t -> Mvpn_net.Flow.t -> 'a option
(** Classify a bare flow (CPE-side, before any encapsulation). [dscp]
    defaults to best effort. *)
