(** Per-node MPLS forwarding state for a whole network.

    One label space, one LFIB and one FTN (FEC-to-NHLFE) map per node.
    LDP and RSVP-TE both install into a plane; the data path reads from
    it: an ingress LSR consults the FTN to push the first label, transit
    LSRs consult the LFIB. *)

type ftn_entry = {
  push : int;  (** label to push *)
  next_hop : int;  (** node to forward to after the push *)
}

type t

val create : nodes:int -> t

val allocator : t -> int -> Label.Allocator.t
(** The node's label space. @raise Invalid_argument on a bad node. *)

val lfib : t -> int -> Lfib.t

val install_ftn : t -> int -> Fec.t -> ftn_entry -> unit
(** Bind a FEC at an ingress node (replaces an existing binding). *)

val remove_ftn : t -> int -> Fec.t -> bool

val find_ftn : t -> int -> Fec.t -> ftn_entry option

val clear_ftn : t -> int -> unit
(** Drop every FTN binding at a node (bumps the generation when any
    existed) — what a control-plane session loss does to an ingress
    until LDP/RSVP-TE re-installs. *)

val ftn_generation : t -> int -> int
(** Monotonic mutation counter of the node's FTN map, bumped by
    {!install_ftn} and successful {!remove_ftn} — including every
    binding {!Ldp.distribute}/{!Ldp.refresh} or RSVP-TE (re)installs.
    FEC → FTN caches compare it to detect that an ingress binding moved
    (e.g. after a failure re-splice).
    @raise Invalid_argument on a bad node. *)

val total_lfib_entries : t -> int
(** Sum of LFIB sizes over all nodes — network-wide label state (E1). *)

val total_labels_allocated : t -> int
