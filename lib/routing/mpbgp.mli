(** MP-BGP VPNv4: the route-distribution plane of RFC 2547 VPNs.

    PE routers exchange VPN-IPv4 routes — a customer prefix made
    globally unique by an 8-byte route distinguisher — with a VPN label
    piggybacked on each route (the paper's "piggybacking labels in the
    routing protocol updates", §4). Export/import is governed by route
    targets: a PE exports a site's routes tagged with the VPN's RT and
    imports into a VRF only routes carrying an RT the VRF lists. This is
    what lets one routing system serve many VPNs whose private address
    spaces overlap.

    Sessions are either a full iBGP mesh among the PEs or a route
    reflector — the state-growth knob of experiment E1/E3.

    Internally every route is interned once in a shared store and all
    tables (each remote PE's Adj-RIB-In, any VRF groups built on top by
    {!Mvpn_provision}) hold only integer ids — at provisioning scale
    (E19: 10k VPNs, 100k+ routes) this is what keeps per-PE memory a
    constant factor of the route count. The store keeps each field in
    an int column and RT lists as ids into a table of distinct lists;
    {!route_pe}, {!route_rts} and {!is_live} read it without building a
    record. Propagation is incremental: exports and withdrawals land in
    a dirty journal and {!run} touches only journaled routes (plus any
    PE added since the last run, which is back-filled), never the full
    table. *)

type rd = { rd_asn : int; rd_assigned : int }
(** Route distinguisher [asn:assigned]. *)

type rt = { rt_asn : int; rt_value : int }
(** Route target extended community. *)

val rd_to_string : rd -> string

type vpnv4_route = {
  rd : rd;
  prefix : Mvpn_net.Prefix.t;
  next_hop_pe : int;  (** egress PE node id *)
  vpn_label : int;  (** inner label the egress PE allocated *)
  export_rts : rt list;
  site : int;  (** originating site id, for diagnostics *)
}

type session_mode =
  | Full_mesh
  | Route_reflector of int  (** the reflecting PE *)

type t

val create : ?mode:session_mode -> unit -> t

val add_pe : t -> int -> unit
(** Register a PE by node id.
    @raise Invalid_argument on duplicates. *)

val session_count : t -> int
(** Number of BGP sessions the mode implies for the current PEs. *)

val export_route : t -> vpnv4_route -> unit
(** The egress PE announces a customer route. Replaces any previous
    announcement with the same (RD, prefix, PE). *)

val export : t -> vpnv4_route -> int
(** Like {!export_route} but returns the interned route id — stable for
    the announcement's lifetime, reusable as a compact handle in
    share-by-reference tables ({!find_route} resolves it back).
    Re-exporting the same (RD, prefix, PE) with new content patches the
    shared record in place and returns the same id. *)

val find_route : t -> int -> vpnv4_route option
(** Resolve an interned id; [None] once the announcement has been
    withdrawn and flushed by {!run} (or if the id was never issued).
    Builds a fresh record on every call. *)

(** {2 Field readers}

    Allocation-free reads of one field of an issued id, for loops over
    many routes. They read dead ids too (the last values exported).
    @raise Invalid_argument on an id never issued. *)

val is_live : t -> int -> bool
(** [find_route t id <> None], for an issued id. *)

val route_pe : t -> int -> int
(** The egress PE ([next_hop_pe]). *)

val route_rts : t -> int -> int
(** The id of the route's export-RT list, for {!rt_set}. Two routes
    carry structurally equal lists exactly when their ids are equal. *)

val rt_set : t -> int -> rt list
(** The export-RT list behind an id {!route_rts} returned.
    @raise Invalid_argument on an id outside [0, rt_set_count). *)

val rt_set_count : t -> int
(** Distinct export-RT lists interned so far; their ids are
    [0 .. rt_set_count - 1]. *)

val iter_exported : t -> (int -> vpnv4_route -> unit) -> unit
(** Every live announcement in the system with its interned id, in no
    particular order. *)

val withdraw_site : t -> pe:int -> site:int -> int
(** Withdraw every route a PE exported for a site (a site leaving the
    VPN); returns how many were withdrawn. *)

val run : t -> int
(** Propagate announcements/withdrawals to every PE; returns the number
    of UPDATE messages sent (full mesh: one per route per remote PE;
    route reflector: to the RR then reflected). Incremental: only
    routes dirtied since the last call are touched, so a no-op call
    returns 0 and a single-site change costs O(PEs), not O(routes). *)

val routes_at : t -> int -> vpnv4_route list
(** All VPNv4 routes a PE has received (plus its own exports). *)

val import : t -> pe:int -> import_rts:rt list -> vpnv4_route list
(** The routes a VRF with the given import list would install at a PE:
    received routes whose export RTs intersect [import_rts]. Routes the
    PE itself exported are excluded (a VRF already holds its local
    routes). *)

val total_routes : t -> int
(** Distinct (RD, prefix, PE) announcements in the system. *)

val store_size : t -> int
(** Interned-store slots ever allocated (live + tombstoned) — a
    diagnostic for the churn bound of the share-by-id scheme. *)

val longest_probe : t -> int
(** The most slots any lookup in the store's two open-addressed indexes
    ((RD, prefix, PE) -> id and (PE, site) -> ids) probes today — a
    diagnostic for hash clustering. *)

val messages_sent : t -> int
(** Cumulative UPDATEs across {!run} calls. *)
