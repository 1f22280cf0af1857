(** Frame Relay frames.

    The paper benchmarks the whole VPN effort against frame relay: the
    overlay model it criticizes is an FR PVC mesh, and the goal is
    "services with performance characteristics rivaling those of frame
    relay solutions but with the added benefit of being standards-
    based". This library models the FR data plane: variable-length
    frames addressed by DLCI, with the DE (discard eligibility), FECN
    and BECN bits that implement its congestion contract. *)

val overhead_bytes : int
(** Total per-frame overhead: header + flags + FCS (6). *)

type t = {
  dlci : int;  (** data link connection identifier, 16–1007 usable *)
  payload : int;  (** bytes *)
  mutable de : bool;  (** discard eligible (marked by CIR policing) *)
  mutable fecn : bool;  (** forward explicit congestion notification *)
  mutable becn : bool;  (** backward ECN *)
}

val make : dlci:int -> payload:int -> t
(** @raise Invalid_argument for a reserved/out-of-range DLCI or
    non-positive payload. *)

val wire_bytes : t -> int
