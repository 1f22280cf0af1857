(** Canned experiment scenarios: backbone + deployment + workload.

    The experiments (E2, E4–E7) and the examples all need the same
    skeleton — build a POP backbone, attach VPN sites with (deliberately
    overlapping) private prefixes, deploy either the MPLS VPN service or
    the overlay baseline, wire CE sinks to SLA collectors, start a mixed
    voice/transactional/bulk workload, run, and read per-class reports.
    This module is that skeleton. *)

type deployment =
  | Mpls_deployment of { policy : Qos_mapping.policy; use_te : bool }
  | Overlay_deployment of {
      policy : Qos_mapping.policy;
      cipher : Mvpn_ipsec.Crypto.cipher;
      copy_tos : bool;
    }

type t

val build :
  ?backend:Mvpn_sim.Engine.backend ->
  ?pops:int ->
  ?core_bandwidth:float ->
  ?core_delay:float ->
  ?access_bandwidth:float ->
  ?vpns:int ->
  ?sites_per_vpn:int ->
  ?seed:int ->
  ?wred:bool ->
  deployment -> t
(** Defaults: 12 POPs at 45 Mb/s, 2 Mb/s access, 2 VPNs × 4 sites.
    VPN [v]'s site [k] uses prefix 10.k.0.0/16 — the same in every VPN,
    so isolation is exercised constantly. Sites spread round-robin over
    POPs with an offset per VPN. [core_delay] overrides the POP–POP
    propagation delay (the parallel runner's lookahead; 0 forces its
    epoch-barrier fallback). [backend] selects the engine's event
    queue (default {!Mvpn_sim.Engine.Calendar}). *)

val engine : t -> Mvpn_sim.Engine.t
val network : t -> Network.t
val backbone : t -> Backbone.t
val registry : t -> Traffic.registry
val mpls : t -> Mpls_vpn.t option
val overlay : t -> Overlay.t option

val sites : t -> Site.t array
(** All sites; VPNs interleaved in build order. *)

val site : t -> vpn:int -> idx:int -> Site.t
(** @raise Not_found if absent. *)

(** The three service classes of the paper's motivation, with their
    SLAs: voice (EF), transactional (AF31), bulk (best effort). *)
val service_classes : (string * Mvpn_net.Dscp.t * Mvpn_qos.Sla.spec) list

val add_mixed_workload :
  ?load:float ->
  ?start:float ->
  ?only:(Site.t -> Site.t -> bool) ->
  t -> pairs:(Site.t * Site.t) list -> duration:float -> unit
(** Per site pair: one on/off EF voice call (64 kb/s, 200-byte
    packets), Poisson AF31 transactions (200 kb/s mean, 512-byte), and
    Pareto-bursty best-effort bulk sized so the pair's total offered
    load is [load] × the access rate (default 0.9). Collectors are the
    class names from {!service_classes}.

    [only] filters which pairs actually start sources; filtered pairs
    still perform every RNG draw, so the armed pairs' substreams are
    byte-identical to an unfiltered run — how a partitioned run arms
    each pair in exactly one shard without perturbing the others. *)

val add_diurnal_workload :
  ?peak_load:float ->
  ?segments:int ->
  ?only:(Site.t -> Site.t -> bool) ->
  t -> pairs:(Site.t * Site.t) list -> duration:float -> unit
(** The soak workload: [segments] (default 8) equal windows over
    [duration], each a {!add_mixed_workload} whose load follows a
    raised-cosine diurnal curve from 0.3 at the edges to [peak_load]
    (default 0.9) mid-run. [only] filters exactly as in
    {!add_mixed_workload} — every RNG draw happens regardless, so
    partitioned soaks stay byte-identical to sequential.
    @raise Invalid_argument on [segments < 1] or a non-finite or
    non-positive [duration]. *)

val default_pairs : t -> (Site.t * Site.t) list
(** The demo workload pairing used by [mvpn]: consecutive sites of
    the same VPN (its site 0→1, 2→3, …; with an odd count its last site
    sends nothing), last pair first. Exposed so the sequential and
    partitioned entry points drive byte-identical workloads. *)

val region_hint : t -> int -> int option
(** Node → POP region for {!Mvpn_par.Partition}: a POP node maps to its
    own index, a CE to its PE's POP, so a region (POP plus homed sites)
    is never split across shards and every cut is a core link. [None]
    for nodes outside any region. *)

val declare_objectives : t -> Mvpn_telemetry.Slo.t -> unit
(** Declare the stock {!Qos_mapping.default_objective} for every band
    of every VPN with sites here, and of vpn 0, where un-tenanted
    traffic books. *)

val attach_slo : ?slo:Mvpn_telemetry.Slo.t -> t -> Mvpn_telemetry.Slo.t
(** Attach SLA conformance tracking to the scenario's network:
    {!declare_objectives} on [slo] (default: a fresh engine). Returns
    the engine for reporting; a caller that reads spans arms its own
    sampler. *)

val finish : t -> unit
(** Close a run at the engine's current time: {!Network.close_books},
    then close out the attached SLO's conformance windows, so the final
    seconds are evaluated even if no packet lands after them.
    @raise Failure as {!Network.close_books}. *)

val run : t -> duration:float -> unit
(** Drive the engine to [duration] seconds, then {!finish}. *)

val first_pair_core_link : t -> (int * int) option
(** The first core link, as a (from, to) node pair, on the IGP shortest
    path between the PEs of the first default pair (sites 0 and 1) —
    the link whose failure that pair's traffic feels. [None] when both
    sites home on one PE. *)

val class_report : t -> string -> Mvpn_qos.Sla.report

val class_reports : t -> (string * Mvpn_qos.Sla.report) list
(** One report per class that generated traffic, in class order. *)

val core_link_ids : t -> int list
(** Directed link ids of the backbone's core (POP–POP) links, in
    topology order — the sampling points for {!Sampler}. *)

val core_links : t -> (int * int) list
(** The backbone's core (POP–POP) duplex links as sorted (src, dst)
    node pairs with src < dst — the fault targets chaos scenarios flap
    (CE access links excluded). *)

val max_core_utilization : t -> float
(** Highest port utilization over backbone core links (CE access links
    excluded) at the current engine time. *)

val core_loss_fraction : t -> float
(** Queue drops ÷ offered over core-link ports. *)
