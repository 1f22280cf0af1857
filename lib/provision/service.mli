(** The service-design model: customer intent, before it becomes state.

    A customer buys a VPN as a contract — a set of sites, a topology
    class and an SLA tier — not as VRFs and route targets. This module
    is the vocabulary of that contract plus the deterministic resource
    allocators ({!Pool}) that turn it into protocol identifiers:

    - {e topology class} fixes the RT import/export scheme (RFC 4364
      §4.3.5): [Any_to_any] is one RT both ways; [Hub_spoke] splits
      into a hub RT (exported by the hub, imported by spokes) and a
      spoke RT (the reverse), so spoke–spoke traffic must transit the
      hub; [Extranet] is any-to-any plus a shared group RT that lets
      distinct customers in the same extranet group reach each other.
    - {e SLA tier} picks the forwarding band and SLO objective via
      {!Mvpn_core.Qos_mapping} (Gold = EF, Silver = AF-hi,
      Bronze = AF-lo).
    - {e allocators} are memoized pure functions of customer/group id —
      calling them in any order, any number of times, from a bulk
      compile or an incremental delta, yields the same RD/RT/label,
      which is what makes incremental provisioning byte-equivalent to a
      from-scratch compile. *)

type tier = Gold | Silver | Bronze

type topology =
  | Any_to_any
  | Hub_spoke
  | Extranet of int  (** extranet group shared across customers *)

type role = Hub | Spoke
(** A site's role inside its topology. Only meaningful under
    [Hub_spoke]; every site of the other classes is a [Spoke]. *)

type site_spec = { sid : int; pe : int; role : role }
(** A site as designed: customer-local id, attachment PE index
    [0 .. pe_count-1], role. *)

type customer = {
  id : int;  (** 1-based; doubles as the VPN id *)
  name : string;
  topology : topology;
  tier : tier;
  sites : site_spec list;  (** ascending [sid] *)
}

val tier_name : tier -> string
val topology_name : topology -> string
val role_name : role -> string

val band_of_tier : tier -> int
(** Gold 0 (EF), Silver 1 (AF-hi), Bronze 2 (AF-lo). *)

val objective_of_tier : tier -> Mvpn_telemetry.Slo.spec
(** The stock SLO for the tier's band
    ({!Mvpn_core.Qos_mapping.default_objective}). *)

val default_role : topology -> sid:int -> role
(** The role a freshly designed site gets: site 0 of a hub-and-spoke
    customer is the hub, everything else is a spoke. Used by both the
    generator and delta application so they can never disagree. *)

val site_prefix : sid:int -> Mvpn_net.Prefix.t
(** [10.x.y.0/24] derived from the customer-local site id — unique
    within a customer, deliberately overlapping across customers so the
    RD machinery is exercised for real.
    @raise Invalid_argument if [sid] is outside [0, 65535]. *)

val global_site_id : customer:int -> sid:int -> int
(** Globally unique site id: [customer lsl 16 lor sid].
    @raise Invalid_argument if either component is out of range. *)

val vpn_label_of_site : int -> int
(** The VPN label for a global site id — a pure function, so labels
    allocated incrementally and from scratch always agree. *)

val site_name : customer:int -> sid:int -> string

(** Deterministic, idempotent RD/RT allocation. *)
module Pool : sig
  type t

  val create : ?asn:int -> unit -> t
  (** [asn] defaults to 65000 — the provider AS every RD/RT carries. *)

  val rd : t -> customer:int -> Mvpn_routing.Mpbgp.rd
  (** One route distinguisher per customer, memoized. *)

  val rt_any : t -> customer:int -> Mvpn_routing.Mpbgp.rt
  val rt_hub : t -> customer:int -> Mvpn_routing.Mpbgp.rt
  val rt_spoke : t -> customer:int -> Mvpn_routing.Mpbgp.rt

  val rt_extranet : t -> group:int -> Mvpn_routing.Mpbgp.rt
  (** The shared RT of an extranet group — the same value for every
      customer in the group, by construction. *)

  val rds_allocated : t -> int
  val rts_allocated : t -> int
  (** Distinct identifiers handed out so far — the provisioning-state
      ledger E19 reports. *)
end

val export_rts :
  Pool.t -> topology:topology -> customer:int -> role:role ->
  Mvpn_routing.Mpbgp.rt list
(** What a site's routes are tagged with on export. *)

val import_rts :
  Pool.t -> topology:topology -> customer:int -> role:role ->
  Mvpn_routing.Mpbgp.rt list
(** What a VRF hosting sites of this role imports. Hub VRFs import the
    spoke RT and vice versa; extranet VRFs import their own RT plus the
    group RT. *)
