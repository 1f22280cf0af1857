(** VPN membership and discovery (§4.1).

    "Members can join and leave the VPN service network and those
    changes need to be known by all remaining members. [...] The
    discovery of membership in one VPN must not allow members of other
    VPNs to be discovered."

    The registry tracks which sites belong to which VPN and models the
    two discovery mechanisms the paper lists, differing in control
    traffic: [Directory] (client–server: a join costs one registration
    plus one notification per existing member) and [Flooded]
    (piggybacked on routing: a join is advertised to every PE in the
    provider network regardless of VPN — cheaper to run, noisier). *)

type mechanism = Directory | Flooded

type t

val create : ?mechanism:mechanism -> pe_count:int -> unit -> t

val notify_cost : mechanism -> pe_count:int -> others:int -> int
(** Messages one join or leave costs with [others] members of its VPN
    left to tell: [1 + others] ([Directory]) or [pe_count] ([Flooded]).
    The one statement of the bill policy. *)

val join : t -> Site.t -> unit
(** @raise Invalid_argument if the site id is already a member. *)

val leave : t -> site_id:int -> bool
(** [false] if the site was not a member. *)

val members : t -> vpn:int -> Site.t list
(** Sites of one VPN, in join order. *)

val discover : t -> asking:Site.t -> Site.t list
(** What a member may learn: its own VPN's other members, never anyone
    else's (the isolation property, enforced by construction and
    verified by tests). The asker is looked up by id: a non-member gets
    [[]], a member its joined VPN's, whatever its record claims. *)

val vpn_ids : t -> int list

val site_count : t -> int

val messages : t -> int
(** Cumulative discovery/notification messages — the E3 metric. *)

val pe_attachment_count : t -> pe:int -> int
(** Number of member sites attached at one PE — per-PE provisioning
    state. *)
