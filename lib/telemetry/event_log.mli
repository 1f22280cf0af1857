(** Bounded ring of typed, timestamped operational events.

    Where the registry's counters say {e how much}, the event log says
    {e what happened and when}: SLO violations and recoveries, alert
    transitions, link failures/repairs, dataplane recompiles. The ring
    keeps the most recent [capacity] entries; recording is a no-op
    while {!Control} is disabled. Producers that do not own an engine
    handle (topology, dataplane) rely on the pluggable clock set by
    whoever does — see {!set_clock}. *)

type event =
  | Slo_violation of {
      vpn : int;
      band : int;
      dimension : string;  (** ["latency_p99"], ["loss"], ["availability"] *)
      value : float;
      bound : float;
    }
  | Slo_recovered of {
      vpn : int;
      band : int;
      dimension : string;
      value : float;
      bound : float;
    }
  | Alert_fire of { vpn : int; band : int; burn_fast : float; burn_slow : float }
  | Alert_clear of { vpn : int; band : int; burn_fast : float }
  | Link_down of { src : int; dst : int }
  | Link_up of { src : int; dst : int }
  | Recompile of { node : int }
  | Fault_injected of { fault : string; a : int; b : int; param : float }
      (** chaos-engine injection; [fault] is the fault kind
          (["link_flap"], ["node_down"], ["loss_burst"],
          ["corrupt_burst"], ["session_drop"]), [a]/[b] the nodes (or
          link endpoints) involved, [param] the hold time, duration or
          probability of the fault. *)
  | Frr_switchover of { src : int; dst : int }
      (** first packet deflected onto the facility bypass protecting
          the src→dst link in this failure episode *)
  | Fallback_engaged of { ingress : int; egress : int }
      (** the ingress PE started tunnelling this PE-pair's traffic as
          best-effort MPLS-in-IP because the label path is gone *)
  | Lsp_restored of { ingress : int; egress : int }
      (** make-before-break: the PE-pair's traffic returned to a
          re-signalled LSP after a fallback episode *)
  | Flap_damped of { src : int; dst : int; flaps : int }
      (** the link flapped more than the damping threshold inside the
          window; re-signalling on its account is suppressed *)
  | Flap_released of { src : int; dst : int }
      (** a damped link held up long enough; suppression lifted *)
  | Resignal of { attempt : int; restored : int; still_down : int }
      (** one control-plane recovery burst (backoff attempt number,
          tunnels restored, tunnels still down) *)
  | Invariant_violated of { invariant : string; detail : string }
      (** the runtime auditor caught a broken invariant ([invariant]
          names the check, e.g. ["conservation"]; [detail] carries the
          numbers that disagreed) *)
  | Note of string

type entry = { seq : int; time : float; event : event }
(** [seq] is the total-order position (monotonic even after the ring
    wraps); [time] is simulation time. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 1024 entries.
    @raise Invalid_argument if [capacity < 1]. *)

val set_clock : t -> (unit -> float) -> unit
(** Source of default timestamps for {!record} calls that omit [?time].
    Starts as [fun () -> 0.0]; {!Mvpn_core.Network.create} points it at
    its engine's [now]. *)

val recorded : t -> int
(** Total entries ever recorded (>= live entries once wrapped). *)

val record : t -> ?time:float -> event -> unit
(** Append an entry, overwriting the oldest once full. [?time] defaults
    to the clock set by {!set_clock}. No-op while {!Control} is
    disabled. *)

val entries : t -> entry list
(** Live entries, oldest first. *)

val recent : t -> int -> entry list
(** The last [n] entries, oldest first. *)

val fold : ('a -> entry -> 'a) -> t -> 'a -> 'a

val kind : event -> string
(** Stable snake_case tag, e.g. ["slo_violation"] — also the JSON
    ["kind"] field. *)

val count_kind : t -> string -> int
(** Live entries whose {!kind} matches. *)

val clear : t -> unit

val entry_to_json : entry -> Json.t
(** [{"seq":…,"time":…,"kind":…}] followed by the event's own
    fields. *)

val json_entries : ?limit:int -> t -> Json.t
(** JSON array of live entries (last [limit] when given). *)

val pp_entry : Format.formatter -> entry -> unit
