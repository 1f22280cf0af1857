(** ATM VC switching and connection admission.

    The circuit side of the comparison: a switch forwards cells by
    (VPI, VCI) table lookup — the very label swapping MPLS generalized —
    and admits connections against the line rate by service category:

    - CBR reserves its peak cell rate;
    - VBR reserves its sustained cell rate (statistical gain over CBR);
    - UBR reserves nothing (best effort).

    The admission arithmetic is what "guaranteed QoS features of ATM"
    (§3.1) means concretely. *)

type category =
  | Cbr of { pcr : float }  (** peak cell rate, cells/s *)
  | Vbr of { scr : float; pcr : float; mbs : int }
      (** sustained + peak cell rates and max burst size *)
  | Ubr

type t

val create : line_rate_bps:float -> t
(** @raise Invalid_argument on a non-positive rate. *)

val admit :
  t -> in_vpi:int -> in_vci:int -> out_vpi:int -> out_vci:int ->
  next_hop:int -> category -> (unit, string) result
(** Install a cross-connect if the category's reservation fits the
    remaining line capacity. Rejects duplicate (in_vpi, in_vci). *)

val release : t -> in_vpi:int -> in_vci:int -> bool

val switch : t -> Cell.t -> (Cell.t * int) option
(** Table lookup: the outgoing (rewritten) cell and next hop, or [None]
    for an unknown VC (cell dropped). *)

val reserved_fraction : t -> float
(** Committed cell rate over line cell rate. *)

val vc_count : t -> int
