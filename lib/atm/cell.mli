(** ATM cells.

    The paper's MPLS argument leans on ATM twice: MPLS "brings the same
    kind of label swapping based forwarding used in frame relay and ATM
    to the handling of IP traffic", and "makes use of the guaranteed QoS
    features of ATM, which underlies many ISP networks". This library
    models the ATM data plane faithfully enough to quantify what MPLS
    keeps (per-VC switching, QoS categories) and what it sheds (the
    cell tax, frame-loss amplification). *)

val cell_bytes : int
(** 53 — total cell size on the wire. *)

val header_bytes : int
(** 5 — VPI/VCI, PTI, CLP, HEC. *)

val payload_bytes : int
(** 48. *)

type t = {
  vpi : int;  (** virtual path identifier, 0–255 *)
  vci : int;  (** virtual channel identifier, 0–65535 *)
  last_of_frame : bool;  (** the AAL5 end-of-message PTI bit *)
  clp : bool;  (** cell loss priority: [true] = drop first *)
  frame_id : int;  (** which AAL5 frame this cell belongs to (model) *)
  index : int;  (** position within the frame *)
}

val make :
  vpi:int -> vci:int -> ?clp:bool -> frame_id:int -> index:int ->
  last_of_frame:bool -> unit -> t
(** @raise Invalid_argument if VPI/VCI are out of range. *)
