(** The provisioning compiler: customer intent → concrete VPN state.

    [compile] drives the existing control-plane modules — every site
    joins {!Mvpn_core.Membership} (one bulk batch), every site route is
    exported through {!Mvpn_routing.Mpbgp} with the RD/RT/label the
    {!Service.Pool} allocators assign, QoS policy comes from the SLA
    tier via {!Mvpn_core.Qos_mapping}, and the PE–PE transport LSP set
    is derived from who imports whose routes.

    State is compact by construction, which is what makes E19's memory
    numbers honest at 10k VPNs / 100k+ routes:

    - routes are interned once in {!Mvpn_routing.Mpbgp}'s store; every
      table here holds integer ids;
    - VRFs with the same import signature share one immutable sorted
      route table (a {e group}) — the per-VRF view is "the group table
      minus routes whose next hop is my own PE", computed at query
      time, never copied. Per-PE state is Σ attached-site VRF locals
      plus shared group references: linear in sites, the C1 claim.

    The incremental half ({!provision_site} / {!decommission_site} /
    {!retier}, driven by {!Delta}) maintains exactly the same canonical
    state: {!fingerprint} is content-addressed (RD, prefix, next hop,
    label — never intern ids or arrival order), so incremental
    convergence is checkable against a from-scratch oracle with string
    equality. *)

type t

val compile : ?mode:Mvpn_routing.Mpbgp.session_mode -> Portfolio.t -> t
(** Bulk compile of a whole portfolio: one membership batch, one BGP
    propagation round, group tables filled by walks of the interned
    store in id order, and LSP refcounts summed per (ingress, egress)
    PE pair from per-group counts. *)

val pe_count : t -> int
val membership : t -> Mvpn_core.Membership.t
val mpbgp : t -> Mvpn_routing.Mpbgp.t

type metrics = {
  customers : int;
  sites : int;
  vrfs : int;
  groups : int;  (** shared route tables (distinct import signatures in use) *)
  routes : int;  (** live VPNv4 announcements *)
  table_entries : int;
      (** logical per-VRF entries: locals + remote view, summed — what a
          router would hold *)
  shared_entries : int;
      (** entries actually stored: group tables + locals — the dedup
          denominator *)
  lsps : int;  (** distinct (ingress, egress) transport LSP pairs *)
  control_messages : int;  (** membership + BGP UPDATEs, cumulative *)
  rds : int;
  rts : int;
  bands : int array;  (** customers per QoS band *)
}

val metrics : t -> metrics

val per_pe : t -> (int * int) array
(** Per PE index: (attached sites, logical table entries) — the C1
    linearity measurement. *)

val qos_policy : t -> customer:int -> int * Mvpn_telemetry.Slo.spec
(** The forwarding band and SLO objective the customer's current tier
    buys. @raise Invalid_argument on an unknown customer. *)

val vrf_locals : t -> pe:int -> customer:int -> role:Service.role -> int list
(** Global site ids homed in one VRF, sorted; [[]] if the VRF does not
    exist. *)

val vrf_table :
  t -> pe:int -> customer:int -> role:Service.role ->
  Mvpn_routing.Mpbgp.vpnv4_route list
(** The VRF's remote view: its group's shared table minus routes whose
    next hop is the VRF's own PE. *)

val fingerprint : t -> string
(** Content-addressed digest of the full provisioned state: customers
    (tier/topology), VRFs (RD, RTs, locals, remote view by route
    content), LSP pairs with refcounts. Equal fingerprints mean equal
    state regardless of how it was reached. *)

val equal : t -> t -> bool

(** {1 Incremental primitives}

    Used by {!Delta}; each returns the number of VRFs it touched. *)

val provision_site : t -> customer:int -> sid:int -> pe:int -> int
(** Join + export + propagate + splice into every importing group and
    the LSP refcounts — O(affected VRFs + PEs), no recompute. *)

val decommission_site : t -> customer:int -> sid:int -> int
(** The exact inverse, including VRF teardown when the last local site
    leaves and group teardown when the last member VRF goes. *)

val retier : t -> customer:int -> tier:Service.tier -> int
(** SLA change: flips the customer's QoS band/objective; routes and RTs
    are untouched. *)

(** {1 Materialization} *)

type deployment = {
  backbone : Mvpn_core.Backbone.t;
  engine : Mvpn_sim.Engine.t;
  network : Mvpn_core.Network.t;
  mpls : Mvpn_core.Mpls_vpn.t;
}

val materialize :
  ?policy:Mvpn_core.Qos_mapping.policy -> Portfolio.t -> deployment
(** Deploy the portfolio for real on a simulated backbone via
    {!Mvpn_core.Mpls_vpn.deploy} — CE nodes, VRFs, label stacks, the
    works. {!Mvpn_core.Mpls_vpn} provisions one any-to-any RT per VPN,
    so this is the deployable reference for any-to-any portfolios
    (tests pin its route/VRF counts against {!metrics}); hub-spoke and
    extranet RT policy lives in the design layer above. *)
