(** CIDR prefixes (an IPv4 network address plus a mask length).

    A prefix is always stored in canonical form: the host bits below the
    mask are zero. Prefixes are the unit of routing state throughout the
    library — FIB entries, OSPF reachability, VPNv4 NLRI and VRF routes
    are all keyed on them. *)

type t
(** A canonical CIDR prefix. *)

val make : Ipv4.t -> int -> t
(** [make addr len] is the prefix [addr/len], with host bits cleared.
    @raise Invalid_argument if [len] is outside [0, 32]. *)

val network : t -> Ipv4.t
(** [network p] is the (canonical) network address of [p]. *)

val length : t -> int
(** [length p] is the mask length of [p]. *)

val of_string : string -> (t, string) result
(** [of_string s] parses ["a.b.c.d/len"]; a bare address means a /32. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse error. *)

val to_string : t -> string

val compare : t -> t -> int
(** Orders by network address, then by mask length (shorter first). *)

val equal : t -> t -> bool

val mem : Ipv4.t -> t -> bool
(** [mem a p] is [true] iff address [a] falls inside prefix [p]. *)

val subsumes : t -> t -> bool
(** [subsumes p q] is [true] iff every address of [q] is inside [p]
    (i.e. [p] is a shorter-or-equal prefix of the same network). *)

val overlaps : t -> t -> bool
(** [overlaps p q] is [true] iff [p] and [q] share at least one address,
    which for prefixes means one subsumes the other. *)

val first : t -> Ipv4.t
(** First address of the prefix (the network address itself). *)

val last : t -> Ipv4.t
(** Last address of the prefix (the broadcast address for the block). *)

val size : t -> int
(** Number of addresses covered: [2^(32 - length)]. *)

val bit : t -> int -> bool
(** [bit p i] is bit [i] of the network address counting from the most
    significant bit ([i = 0] is the top bit). Only meaningful for
    [i < length p], but defined for all [i] in [0, 31].
    @raise Invalid_argument if [i] is outside [0, 31]. *)

val split : t -> (t * t) option
(** [split p] is the two half-length children of [p], or [None] when
    [p] is a /32 and cannot be split. *)

val subnets : t -> int -> t list
(** [subnets p len] enumerates the subnets of [p] with mask length
    [len], in address order.
    @raise Invalid_argument if [len < length p] or [len > 32] or the
    enumeration would exceed 2^20 prefixes. *)

val nth_host : t -> int -> Ipv4.t
(** [nth_host p i] is the [i]-th address inside [p] (0-based).
    @raise Invalid_argument if [i] is outside the prefix. *)

val default : t
(** 0.0.0.0/0 — the default route. *)
