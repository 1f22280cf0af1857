(** DiffServ codepoints and per-hop behaviours.

    The paper's end-to-end QoS story rides on the 6-bit DSCP field of the
    IP header: the CPE marks it (via CBQ classification), the provider
    edge maps it into the 3-bit MPLS EXP field, and every hop selects a
    per-hop behaviour (PHB) from it. *)

type t = private int
(** A 6-bit DiffServ codepoint, in [0, 63]. *)

(** The standard PHB groups (RFC 2474/2597/3246). *)
type phb =
  | Default  (** best effort (DSCP 0) *)
  | Ef  (** expedited forwarding — low loss, low latency (DSCP 46) *)
  | Af of int * int
      (** assured forwarding class [1..4] with drop precedence [1..3] *)
  | Cs of int  (** class selector [0..7] (IP-precedence compatibility) *)

val of_int_exn : int -> t
(** @raise Invalid_argument if outside [0, 63]. *)

val to_int : t -> int

val of_phb : phb -> t
(** The standard codepoint for a PHB.
    @raise Invalid_argument on an out-of-range AF class/precedence or CS. *)

val to_phb : t -> phb
(** The PHB a codepoint selects. Codepoints that are not standard EF/AF/CS
    values map to [Cs (c lsr 3)] per the class-selector compatibility rule,
    and 0 maps to [Default]. *)

val best_effort : t
val ef : t
val af : int -> int -> t
(** [af cls prec] is AF[cls][prec]. @raise Invalid_argument if out of range. *)

val cs : int -> t
(** [cs n] is class selector [n]. @raise Invalid_argument if out of range. *)

val to_exp : t -> int
(** [to_exp d] is the provider-edge DSCP→EXP mapping the paper describes
    (§5): the 3-bit MPLS EXP value that preserves the service class across
    the label-switched backbone. EF → 5, AFx → x + 1 (so AF4 → 5 is
    reserved for EF; AF classes map to 2..4 with AF4 sharing 5), CS6/7 →
    6/7 (network control), best effort → 0. Concretely: EF→5, AF1→1,
    AF2→2, AF3→3, AF4→4, CSn→n, Default→0. *)

val of_exp : int -> t
(** [of_exp e] inverts {!to_exp} at the egress edge: 5→EF, 1..4→AFx1,
    0→best effort, 6..7→CS6/7.
    @raise Invalid_argument if [e] is outside [0, 7]. *)

val drop_precedence : t -> int
(** [drop_precedence d] is the WRED drop precedence of [d]: 1 (protect)
    to 3 (drop first). AF codepoints carry it explicitly; everything else
    is 1. *)

val pp : Format.formatter -> t -> unit
(** Prints the symbolic name ([EF], [AF31], [CS6], [BE], or the raw
    number for non-standard codepoints). *)

val equal : t -> t -> bool
