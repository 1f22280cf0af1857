(** Control-plane retry with exponential backoff and flap damping.

    Subscribes to {!Mvpn_sim.Topology.on_duplex_change}. Every link
    failure (and every repair) schedules one coalesced re-signal burst
    — the [repair] callback, typically {!Mvpn_core.Mpls_vpn.reconverge}
    plus an {!Frr.rearm} — after an exponential backoff
    (0.2 s ·2ᵃᵗᵗᵉᵐᵖᵗ, capped at 5 s) with deterministic seeded ±25 %
    jitter, so repeated failures do not synchronize into
    re-signal storms. A burst whose [repair] reports everything
    restored resets the backoff; otherwise the next burst backs off
    further.

    Flap damping: a link that goes down 5 times within 2 seconds is
    damped — it stops triggering repair
    bursts, and while {e every} down link is damped, pending bursts are
    suppressed outright ([resilience.recovery.suppressed]). A damped
    link is released after holding up for 3 seconds, which
    re-arms repair. Typed events ([Flap_damped], [Flap_released],
    [Resignal]) and the [resilience.recovery.*] counters trace every
    decision. *)

type t

val arm :
  seed:int ->
  Mvpn_core.Network.t ->
  repair:(unit -> int * int) ->
  t
(** Subscribe to the network's topology. [repair] performs one
    re-signal burst and reports [(restored, still_down)]; a burst with
    [still_down = 0] resets the backoff. [seed] drives the jitter —
    equal seeds give equal retry timelines. *)

val request : t -> unit
(** Ask for a repair burst outside any link transition — e.g. an LDP
    or BGP session loss that needs a refresh. Coalesces into a pending
    burst and obeys the backoff like any other trigger. *)

val damped : t -> int -> int -> bool
(** Is the duplex link (in either order) currently damped? *)

val damped_links : t -> (int * int) list
(** Currently damped duplex links, sorted. *)
