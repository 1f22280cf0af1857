(** IntServ: per-flow RSVP reservations (the paper's "additional
    initiatives include IntServ (Integrated Services)", §5 — and the
    §2.2 worry that "users question the size of the administration
    task").

    A reservation pins one flow's token-bucket TSpec onto every router
    along its IGP path: admission succeeds only if each link has
    unreserved capacity (up to a reservable fraction of line rate), and
    every router on the path must then hold per-flow classifier and
    scheduler state. That per-flow state is exactly what DiffServ's
    class aggregation (4 bands, constant per router) and the MPLS VPN's
    per-route label state avoid — experiment E11 counts it. *)

type tspec = {
  rate_bps : float;  (** token rate the flow requests *)
  bucket_bytes : float;  (** burst allowance *)
}

type t

val create : Mvpn_sim.Topology.t -> t
(** IntServ may promise away at most 75 % of each link. *)

val reserve :
  t -> src:int -> dst:int -> Mvpn_net.Flow.t -> tspec ->
  (int, string) result
(** PATH/RESV along the current shortest path: returns a reservation id
    or the refusal reason. The same 5-tuple cannot reserve twice. *)

val release : t -> int -> bool

val reservation_count : t -> int

val flow_state_at : t -> int -> int
(** Per-flow entries a given router holds — the administration-size
    metric. *)

val total_flow_state : t -> int
(** Sum over all routers. *)
