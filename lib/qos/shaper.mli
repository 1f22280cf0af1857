(** Token-bucket traffic shaping.

    The CPE's alternative to being policed: instead of letting excess
    traffic reach the provider's meter (where it is remarked or
    dropped), a shaper delays it in a local queue until the contracted
    rate allows it out. Shaping trades delay for loss — ablation A6
    measures the trade against the {!Cbq} policer. *)

type t

val create :
  Mvpn_sim.Engine.t ->
  rate_bps:float -> burst_bytes:float -> queue_bytes:int ->
  release:(Mvpn_net.Packet.t -> unit) -> t
(** Packets leave through [release] no faster than [rate_bps] (with the
    given burst); at most [queue_bytes] may wait. *)

val offer : t -> Mvpn_net.Packet.t -> bool
(** Submit a packet: released immediately if tokens allow, queued if
    the buffer has room, else refused ([false]). *)

val shaped : t -> int
(** Packets that had to wait (vs passing straight through). *)

val dropped : t -> int
(** Packets refused because the shaping buffer was full. *)
