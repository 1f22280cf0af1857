(** Class-based queueing at the customer premises (§5).

    "The customer premises device could use technologies such as CBQ to
    classify traffic and DiffServ/ToS to mark it in a way that the
    service provider network understands the service level
    requirement."

    A CBQ instance is an ordered multifield classifier over traffic
    classes, each with a contracted rate (token bucket), the DSCP it
    marks conforming traffic with, and a policy for excess traffic —
    remark to a worse drop precedence, demote to best effort, or drop.
    Borrowing between classes is modelled by the exceed policy rather
    than a share hierarchy. *)

type exceed_action =
  | Remark of Mvpn_net.Dscp.t  (** e.g. AF31 → AF33 out of profile *)
  | Demote_best_effort
  | Police_drop

type class_cfg = {
  name : string;
  rate_bps : float;
  burst_bytes : float;
  dscp : Mvpn_net.Dscp.t;  (** mark for in-profile traffic *)
  exceed : exceed_action;
  borrow : bool;
      (** CBQ's defining feature: an over-limit class may borrow from
          the parent (interface) allocation while siblings leave it
          idle, instead of triggering [exceed] immediately *)
}

type t

val create :
  ?parent_rate_bps:float ->
  classes:class_cfg array -> rules:int Classifier.rule list -> unit -> t
(** Rule actions are indexes into [classes]. [parent_rate_bps] is the
    shared allocation borrowing classes draw from (default: the sum of
    class rates — i.e. borrowing only redistributes siblings' idle
    share, never exceeds the interface commitment).
    @raise Invalid_argument if a rule's action is out of range. *)

type verdict =
  | Marked of { dscp : Mvpn_net.Dscp.t; class_name : string }
  | Dropped of { class_name : string }

val process : t -> now:float -> Mvpn_net.Packet.t -> verdict
(** Classify, meter and mark one packet, writing the resulting DSCP into
    its inner header. Unmatched packets are marked best effort
    (class name ["default"]). *)
