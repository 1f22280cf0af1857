(** Frame Relay switching: DLCI cross-connects with congestion
    signalling.

    DLCIs are link-local (like MPLS labels, unlike global addresses):
    each switch rewrites the DLCI per its table. When a port's queue
    passes the congestion threshold the switch sets FECN on frames
    riding through and BECN on frames of the reverse direction, and
    under pressure drops DE-marked frames first — the frame relay
    congestion contract that DiffServ's WRED drop precedences
    generalize. *)

type t

val create : ?congestion_threshold:int -> ?queue_capacity:int -> unit -> t
(** Thresholds are in queued frames: congestion signalling starts at
    [congestion_threshold] (default 16); the queue holds at most
    [queue_capacity] (default 64) frames, with DE frames refused first
    once past the threshold. *)

val cross_connect : t -> in_dlci:int -> out_dlci:int -> next_hop:int ->
  (unit, string) result
(** @raise nothing; duplicate in-DLCIs are an [Error]. *)

type forward_result =
  | Forwarded of { frame : Frame.t; next_hop : int }
  | Discarded_de  (** DE frame shed by congestion *)
  | Queue_full
  | Unknown_dlci

val submit : t -> Frame.t -> forward_result
(** Switch one frame: DLCI rewrite + congestion marking + queueing
    policy. The returned frame (on success) is the same mutable frame
    with the outgoing DLCI and possibly FECN set. *)

val drain : t -> (Frame.t * int) option
(** Serve the next queued (frame, next hop), if any. *)

val de_discards : t -> int
