module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Fib = Mvpn_net.Fib
module Dscp = Mvpn_net.Dscp
module Packet = Mvpn_net.Packet
module Ospf = Mvpn_routing.Ospf
module Mpbgp = Mvpn_routing.Mpbgp
module Spf = Mvpn_routing.Spf
module Ldp = Mvpn_mpls.Ldp
module Plane = Mvpn_mpls.Plane
module Lfib = Mvpn_mpls.Lfib
module Label = Mvpn_mpls.Label
module Fec = Mvpn_mpls.Fec
module Rsvp_te = Mvpn_mpls.Rsvp_te
module Int_tbl = Mvpn_sim.Int_tbl

let provider_asn = 65000

(* RSVP-TE reservation per PE pair when TE is on: 1 Mb/s. *)
let te_bandwidth = 1e6

(* Node-id keyed table for the per-packet CE -> VRF lookup: node ids
   are small non-negative ints, so the identity is a perfect hash and
   neither the hash nor the key compare leaves OCaml code. *)
module Node_tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash n = n land max_int
  end)

let m_fallback_packets =
  Mvpn_telemetry.Registry.counter "resilience.fallback.packets"
let m_fallback_engaged =
  Mvpn_telemetry.Registry.counter "resilience.fallback.engaged"
let m_fallback_restored =
  Mvpn_telemetry.Registry.counter "resilience.fallback.restored"

type t = {
  net : Network.t;
  backbone : Backbone.t;
  membership : Membership.t;
  ospf : Ospf.t;
  ldp : Ldp.t;
  mpbgp : Mpbgp.t;
  te : Rsvp_te.t option;
  vrf_table : (int * int, Vrf.t) Hashtbl.t;  (* (pe node, vpn) -> vrf *)
  ce_vrf : Vrf.t Node_tbl.t;  (* ce node -> its vrf *)
  site_state : (int, Site.t * int) Hashtbl.t;  (* site id -> site, label *)
  (* PE-pair tables consulted once per forwarded VPN packet: keyed by
     the packed pair [pe_key] (node ids fit 20 bits) so the per-packet
     lookup hashes an immediate int instead of allocating a tuple. *)
  pe_tunnels : (int, int) Hashtbl.t;  (* pe_key (src, dst pe) -> tunnel *)
  pe_next_hop : (int, int) Hashtbl.t;
  (* (pe, vpn label) pairs that re-export another carrier's prefixes:
     excluded from group replication (multicast is intra-provider). *)
  external_labels : (int * int, unit) Hashtbl.t;
  map_dscp_to_exp : bool;
  domain : int -> bool;
  (* Graceful degradation: when no labelled transport reaches the
     egress PE, tunnel the VPN label inside plain IP toward the egress
     loopback instead of dropping. Off by default; the resilience
     layer and the chaos benches switch it on. *)
  mutable ip_fallback : bool;
  (* (ingress, egress) PE pairs currently degraded to IP: drives the
     once-per-episode engage/restore events and counters. *)
  fallback_active : unit Int_tbl.t;  (* pe_key (ingress, egress) *)
  (* Per-PE-pair transport-label memo (see {!outer_transport}): the
     FTN answer is a pure function of the ingress node's FTN table and
     the TE tunnel map, so it is cached under those two generation
     stamps and recomputed only after LDP/RSVP-TE churn. *)
  transport_memo : transport_memo Int_tbl.t;  (* pe_key *)
  mutable tunnels_gen : int;  (* bumped on every pe_tunnels update *)
  mutable touches : int;
}

and transport_memo = {
  mutable tm_ftn_gen : int;
  mutable tm_tun_gen : int;
  mutable tm_ans : Plane.ftn_entry option;
}

let pe_key a b = (a lsl 20) lor b

let membership t = t.membership
let set_ip_fallback t flag = t.ip_fallback <- flag
let ip_fallback t = t.ip_fallback
let ospf t = t.ospf
let te t = t.te

let vrf t ~pe ~vpn = Hashtbl.find_opt t.vrf_table (pe, vpn)

let rd_of_vpn vpn = { Mpbgp.rd_asn = provider_asn; rd_assigned = vpn }

let rt_of_vpn vpn = { Mpbgp.rt_asn = provider_asn; rt_value = vpn }

(* --- control-plane helpers -------------------------------------------- *)

let domain_link t (l : Topology.link) =
  l.Topology.up && t.domain l.Topology.src && t.domain l.Topology.dst

let refresh_pe_next_hops t =
  Hashtbl.reset t.pe_next_hop;
  let topo = Network.topology t.net in
  let pops = Backbone.pops t.backbone in
  Array.iter
    (fun src ->
       let tree = Spf.dijkstra ~usable:(domain_link t) topo ~src in
       Array.iter
         (fun dst ->
            if dst <> src && tree.Spf.first_hop.(dst) >= 0 then
              Hashtbl.replace t.pe_next_hop (pe_key src dst)
                tree.Spf.first_hop.(dst))
         pops)
    pops

let ensure_vrf t (site : Site.t) =
  let key = (site.Site.pe_node, site.Site.vpn) in
  match Hashtbl.find_opt t.vrf_table key with
  | Some v -> v
  | None ->
    let v =
      Vrf.create ~pe:site.Site.pe_node ~rd:(rd_of_vpn site.Site.vpn)
        ~import_rts:[rt_of_vpn site.Site.vpn]
        ~export_rts:[rt_of_vpn site.Site.vpn]
    in
    Hashtbl.replace t.vrf_table key v;
    v

(* Static routing on the access leg: the CE default-routes to its PE
   and owns its own prefix. *)
let multicast_range =
  Prefix.make (Mvpn_net.Ipv4.of_octets 224 0 0 0) 4

let provision_ce_routing t (site : Site.t) =
  let ce_fib = Network.fib t.net site.Site.ce_node in
  Fib.add ce_fib Prefix.default
    { Fib.next_hop = site.Site.pe_node; cost = 1; source = Fib.Static };
  Fib.add ce_fib site.Site.prefix
    { Fib.next_hop = Fib.local_delivery; cost = 0; source = Fib.Connected };
  (* Group traffic replicated to this site terminates at the CE... *)
  Fib.add ce_fib multicast_range
    { Fib.next_hop = Fib.local_delivery; cost = 0; source = Fib.Connected };
  (* ...but group traffic originated at this site must go up to the PE
     (the FIB alone cannot tell the directions apart). *)
  Dataplane.add_interceptor (Network.dataplane t.net) site.Site.ce_node
    (fun ~from packet ->
      let dst = (Packet.visible_header packet).Packet.dst in
      if from = None && Mvpn_net.Ipv4.is_multicast dst then begin
        Network.transmit t.net ~from:site.Site.ce_node
          ~to_:site.Site.pe_node packet;
        Dataplane.Consumed
      end
      else Dataplane.Continue)

(* Bind a site into the data and control planes: VRF local route, a VPN
   label at the PE whose LFIB pops straight to the CE, and the VPNv4
   export. *)
let provision_site t (site : Site.t) =
  let v = ensure_vrf t site in
  Vrf.add_local v site;
  let label =
    Label.Allocator.alloc (Plane.allocator (Network.plane t.net) site.Site.pe_node)
  in
  Lfib.install
    (Plane.lfib (Network.plane t.net) site.Site.pe_node)
    ~in_label:label
    { Lfib.op = Lfib.Pop_and_ip; next_hop = site.Site.ce_node };
  Mpbgp.export_route t.mpbgp
    { Mpbgp.rd = Vrf.rd v; prefix = site.Site.prefix;
      next_hop_pe = site.Site.pe_node; vpn_label = label;
      export_rts = Vrf.export_rts v; site = site.Site.id };
  Hashtbl.replace t.site_state site.Site.id (site, label);
  provision_ce_routing t site;
  t.touches <- t.touches + 1

let reimport_all t =
  Hashtbl.iter
    (fun (pe, _) v ->
       ignore (Vrf.clear_remote v);
       List.iter
         (fun (r : Mpbgp.vpnv4_route) ->
            if r.Mpbgp.next_hop_pe <> pe then
              Vrf.install_remote v ~prefix:r.Mpbgp.prefix
                ~pe:r.Mpbgp.next_hop_pe ~vpn_label:r.Mpbgp.vpn_label)
         (Mpbgp.import t.mpbgp ~pe ~import_rts:(Vrf.import_rts v)))
    t.vrf_table

(* --- data plane --------------------------------------------------------- *)

(* Transport label selection: TE tunnel FTN if one is pinned for the
   pair, else the LDP FTN toward the egress loopback. The uncached
   walk allocates (a FEC, a loopback prefix) and pays a structural
   hash per call, so the verdict is memoized per PE pair under the
   ingress node's FTN generation and the tunnel-map generation — the
   only inputs the answer depends on. *)
let outer_transport_slow t ~ingress_pe ~egress_pe =
  let plane = Network.plane t.net in
  let te_ftn =
    match Hashtbl.find_opt t.pe_tunnels (pe_key ingress_pe egress_pe) with
    | Some tunnel_id ->
      Plane.find_ftn plane ingress_pe (Fec.Tunnel_fec tunnel_id)
    | None -> None
  in
  match te_ftn with
  | Some e -> Some e
  | None ->
    (match Backbone.pop_of_node t.backbone egress_pe with
     | Some pop ->
       Plane.find_ftn plane ingress_pe
         (Fec.Prefix_fec (Backbone.loopback t.backbone ~pop))
     | None -> None)

let outer_transport t ~ingress_pe ~egress_pe =
  let fgen = Plane.ftn_generation (Network.plane t.net) ingress_pe in
  let k = pe_key ingress_pe egress_pe in
  match Int_tbl.find t.transport_memo k with
  | m when m.tm_ftn_gen = fgen && m.tm_tun_gen = t.tunnels_gen -> m.tm_ans
  | m ->
    let ans = outer_transport_slow t ~ingress_pe ~egress_pe in
    m.tm_ftn_gen <- fgen;
    m.tm_tun_gen <- t.tunnels_gen;
    m.tm_ans <- ans;
    ans
  | exception Not_found ->
    let ans = outer_transport_slow t ~ingress_pe ~egress_pe in
    Int_tbl.add t.transport_memo k
      { tm_ftn_gen = fgen; tm_tun_gen = t.tunnels_gen; tm_ans = ans };
    ans

(* A PE egress hop still delivers when its link is up — or when a
   fast-reroute bypass currently covers it (the transmit-time switch in
   {!Network.transmit} will detour the packet). Link state flips with
   no generation to stamp, so this stays a live check — but through the
   dense link-id matrix, not the option-returning [find_link]. *)
let egress_usable t pe nh =
  let topo = Network.topology t.net in
  let id = Topology.find_link_id topo pe nh in
  id >= 0
  && (let l = Topology.link topo id in
      l.Topology.up
      || (match
            Lfib.protection (Plane.lfib (Network.plane t.net) pe) ~next_hop:nh
          with
          | Some pr -> pr.Lfib.usable ()
          | None -> false))

(* The labelled transport works again for this PE pair: close any open
   degradation episode — the make-before-break return to the LSP. *)
let note_transport_ok t ~ingress ~egress =
  let k = pe_key ingress egress in
  if Int_tbl.mem t.fallback_active k then begin
    Int_tbl.remove t.fallback_active k;
    Mvpn_telemetry.Counter.incr m_fallback_restored;
    if !Mvpn_telemetry.Control.enabled then
      Mvpn_telemetry.Event_log.record
        (Mvpn_telemetry.Registry.events ())
        (Mvpn_telemetry.Event_log.Lsp_restored { ingress; egress })
  end

let fallback_overhead = 24  (* outer IPv4 (20 B) + GRE shim (4 B) *)

(* Graceful degradation (RFC 4023 in spirit): no labelled transport
   reaches the egress PE, so carry the VPN label inside a best-effort
   IP tunnel between PE loopbacks — the outer header rides the global
   FIBs that OSPF keeps converging even while LDP/RSVP-TE state is
   gone. The label travels in the GRE key (the outer [src_port]); the
   egress PE's interceptor restores it. Best effort by construction:
   [copy_tos:false] leaves the outer DSCP at BE, so the core cannot
   see the tenant's class — degraded, counted, never silent. *)
let send_fallback t ~ingress ~egress ~vpn_label packet =
  match
    (Backbone.pop_of_node t.backbone ingress,
     Backbone.pop_of_node t.backbone egress)
  with
  | Some ipop, Some epop ->
    let src = Prefix.network (Backbone.loopback t.backbone ~pop:ipop) in
    let dst = Prefix.network (Backbone.loopback t.backbone ~pop:epop) in
    Packet.encapsulate packet ~src ~dst ~proto:Mvpn_net.Flow.Gre
      ~overhead:fallback_overhead ~copy_tos:false;
    (Packet.visible_header packet).Packet.src_port <- vpn_label;
    let k = pe_key ingress egress in
    if not (Int_tbl.mem t.fallback_active k) then begin
      Int_tbl.replace t.fallback_active k ();
      Mvpn_telemetry.Counter.incr m_fallback_engaged;
      if !Mvpn_telemetry.Control.enabled then
        Mvpn_telemetry.Event_log.record
          (Mvpn_telemetry.Registry.events ())
          (Mvpn_telemetry.Event_log.Fallback_engaged { ingress; egress })
    end;
    Mvpn_telemetry.Counter.incr m_fallback_packets;
    Network.forward_ip t.net ingress packet
  | _ -> Network.drop_packet ~node:ingress ~packet t.net "pe-unreachable"

(* Forward a packet out of a PE along one VRF route: hairpin to a
   local CE, plain IP over an Option-A border, or — the §5 edge
   function — push the VPN label with the CPE-marked DSCP in the EXP
   bits of the whole stack and hand it to the transport LSP. When no
   labelled transport survives (FTN gone or its egress link dead and
   unprotected), degrade to the IP tunnel if enabled, else drop
   ["pe-unreachable"]. *)
let pe_forward_to t pe packet nh =
  let hdr = Packet.visible_header packet in
  let relay to_ =
    if hdr.Packet.ttl <= 1 then
      Network.drop_packet ~node:pe ~packet t.net "ip-ttl"
    else begin
      hdr.Packet.ttl <- hdr.Packet.ttl - 1;
      Network.transmit t.net ~from:pe ~to_ packet
    end
  in
  match nh with
  | Vrf.Local_site s -> relay s.Site.ce_node
  | Vrf.Via_neighbor nbr -> relay nbr
  | Vrf.Remote_pe { pe = egress_pe; vpn_label } ->
    let exp =
      if t.map_dscp_to_exp then Dscp.to_exp (Packet.visible_dscp packet)
      else 0
    in
    let ttl = hdr.Packet.ttl in
    let labelled_send e =
      note_transport_ok t ~ingress:pe ~egress:egress_pe;
      Packet.push_label packet ~label:vpn_label ~exp ~ttl;
      (match e with
       | Some (e : Plane.ftn_entry) ->
         if e.Plane.push <> Label.explicit_null then
           Packet.push_label packet ~label:e.Plane.push ~exp ~ttl;
         Network.transmit t.net ~from:pe ~to_:e.Plane.next_hop packet
       | None ->
         (* Adjacent PHP egress: the inner label alone travels. *)
         (match Hashtbl.find_opt t.pe_next_hop (pe_key pe egress_pe) with
          | Some nh -> Network.transmit t.net ~from:pe ~to_:nh packet
          | None -> assert false))
    in
    (match outer_transport t ~ingress_pe:pe ~egress_pe with
     | Some e when egress_usable t pe e.Plane.next_hop ->
       labelled_send (Some e)
     | Some _ | None ->
       (* No usable transport LSP. Single-label PHP only works when the
          egress PE is literally the next hop; a missing FTN toward a
          distant PE (an LDP session loss, say) is a transport outage,
          not an implicit-null. *)
       (match Hashtbl.find_opt t.pe_next_hop (pe_key pe egress_pe) with
        | Some nh when nh = egress_pe && egress_usable t pe nh ->
          labelled_send None
        | Some _ | None ->
          if t.ip_fallback then
            send_fallback t ~ingress:pe ~egress:egress_pe ~vpn_label packet
          else Network.drop_packet ~node:pe ~packet t.net "pe-unreachable"))

(* Group communication (the abstract's "users who want to specify group
   communication"): ingress replication — one copy per VRF route, each
   forwarded exactly like a unicast packet to that destination. The
   sending site does not receive its own copy. *)
let pe_multicast t pe v ~from packet =
  Vrf.iter_routes v (fun prefix nh ->
      let replicate =
        match nh with
        (* Never back to the sending site. *)
        | Vrf.Local_site s -> Some s.Site.ce_node <> from
        | Vrf.Remote_pe { pe = p; vpn_label } ->
          not (Hashtbl.mem t.external_labels (p, vpn_label))
        (* Group delivery is intra-provider: per-prefix replication
           across an Option-A border would both duplicate (the far
           carrier re-replicates every copy) and, without care, loop.
           Inter-AS multicast VPN needs P2MP machinery out of scope
           here. *)
        | Vrf.Via_neighbor _ -> false
      in
      if replicate && not (Prefix.equal prefix multicast_range) then begin
        Network.note_fork t.net;
        pe_forward_to t pe (Packet.copy packet) nh
      end);
  (* Only the replicas travel; the original has served its purpose. *)
  Network.note_consume t.net packet;
  Packet.release packet

let pe_ingress t pe v ~from packet =
  let hdr = Packet.visible_header packet in
  if Mvpn_net.Ipv4.is_multicast hdr.Packet.dst then
    pe_multicast t pe v ~from packet
  else
    match Vrf.lookup v hdr.Packet.dst with
    | None -> Network.drop_packet ~node:pe ~packet t.net "vrf-no-route"
    | Some nh -> pe_forward_to t pe packet nh

let install_pe_interceptor t pe =
  let own_loopback =
    match Backbone.pop_of_node t.backbone pe with
    | Some pop -> Some (Prefix.network (Backbone.loopback t.backbone ~pop))
    | None -> None
  in
  Dataplane.add_interceptor (Network.dataplane t.net) pe (fun ~from packet ->
      if
        Packet.has_outer packet
        && from <> None
        && not (Packet.labelled packet)
        &&
        let o = Packet.outer_header packet in
        o.Packet.proto = Mvpn_net.Flow.Gre
        && (match own_loopback with
            | Some lo -> Mvpn_net.Ipv4.equal o.Packet.dst lo
            | None -> false)
      then begin
        (* Terminate a degraded-mode tunnel: strip the outer header,
           restore the VPN label from the GRE key and let the normal
           pipeline pop it toward the CE. *)
        let o = Packet.outer_header packet in
        let vpn_label = o.Packet.src_port in
        let outer_ttl = o.Packet.ttl in
        Packet.decapsulate packet;
        Packet.push_label packet ~label:vpn_label
          ~exp:
            (if t.map_dscp_to_exp then
               Dscp.to_exp (Packet.visible_dscp packet)
             else 0)
          ~ttl:outer_ttl;
        Dataplane.Continue
      end
      else
        match from with
        | Some prev when not (Packet.labelled packet) ->
          (match Node_tbl.find t.ce_vrf prev with
           | v when Vrf.pe v = pe ->
             pe_ingress t pe v ~from packet;
             Dataplane.Consumed
           | _ | (exception Not_found) -> Dataplane.Continue)
        | Some _ | None -> Dataplane.Continue)

(* --- deployment --------------------------------------------------------- *)

let signal_te_mesh t =
  match t.te with
  | None -> ()
  | Some te ->
    let pe_nodes =
      List.sort_uniq Int.compare
        (Hashtbl.fold (fun (pe, _) _ acc -> pe :: acc) t.vrf_table [])
    in
    List.iter
      (fun src ->
         List.iter
           (fun dst ->
              if src <> dst
              && not (Hashtbl.mem t.pe_tunnels (pe_key src dst)) then
                match
                  Rsvp_te.signal te ~src ~dst ~bandwidth:te_bandwidth
                with
                | Ok tn ->
                  Hashtbl.replace t.pe_tunnels (pe_key src dst) tn.Rsvp_te.id;
                  t.tunnels_gen <- t.tunnels_gen + 1
                | Error _ -> ())
           pe_nodes)
      pe_nodes

let deploy ?(mechanism = Membership.Directory) ?(session_mode = Mpbgp.Full_mesh)
    ?(use_te = false) ?(map_dscp_to_exp = true)
    ?(domain = fun _ -> true) ~net ~backbone ~sites () =
  let topo = Network.topology net in
  let membership =
    Membership.create ~mechanism ~pe_count:(Backbone.pop_count backbone) ()
  in
  let ospf = Ospf.create ~members:domain topo in
  Array.iteri
    (fun pop node -> Ospf.attach_prefix ospf node (Backbone.loopback backbone ~pop))
    (Backbone.pops backbone);
  ignore (Ospf.converge ospf);
  let fecs =
    Array.to_list
      (Array.mapi
         (fun pop node -> (Backbone.loopback backbone ~pop, node))
         (Backbone.pops backbone))
  in
  let usable (l : Topology.link) =
    l.Topology.up && domain l.Topology.src && domain l.Topology.dst
  in
  let ldp = Ldp.distribute ~usable topo (Network.plane net) ~fecs in
  let mpbgp = Mpbgp.create ~mode:session_mode () in
  Array.iter (fun node -> Mpbgp.add_pe mpbgp node) (Backbone.pops backbone);
  let te = if use_te then Some (Rsvp_te.create topo (Network.plane net)) else None in
  let t =
    { net; backbone; membership; ospf; ldp; mpbgp; te;
      vrf_table = Hashtbl.create 16; ce_vrf = Node_tbl.create 16;
      site_state = Hashtbl.create 16; pe_tunnels = Hashtbl.create 16;
      pe_next_hop = Hashtbl.create 64;
      external_labels = Hashtbl.create 16; map_dscp_to_exp; domain;
      ip_fallback = false; fallback_active = Int_tbl.create 8;
      transport_memo = Int_tbl.create 64; tunnels_gen = 0;
      touches = 0 }
  in
  Network.refresh_igp ~members:t.domain t.net t.ospf;
  refresh_pe_next_hops t;
  List.iter
    (fun site ->
       Membership.join membership site;
       provision_site t site;
       Node_tbl.replace t.ce_vrf site.Site.ce_node (ensure_vrf t site))
    sites;
  ignore (Mpbgp.run mpbgp);
  reimport_all t;
  signal_te_mesh t;
  Array.iter (fun node -> install_pe_interceptor t node) (Backbone.pops backbone);
  t

let add_site t site =
  Membership.join t.membership site;
  provision_site t site;
  Node_tbl.replace t.ce_vrf site.Site.ce_node (ensure_vrf t site);
  ignore (Mpbgp.run t.mpbgp);
  reimport_all t;
  signal_te_mesh t

(* --- inter-provider (Option A) borders --------------------------------- *)

let attach_vrf_neighbor t ~pe ~vpn ~neighbor =
  let key = (pe, vpn) in
  let v =
    match Hashtbl.find_opt t.vrf_table key with
    | Some v -> v
    | None ->
      let v =
        Vrf.create ~pe ~rd:(rd_of_vpn vpn)
          ~import_rts:[rt_of_vpn vpn] ~export_rts:[rt_of_vpn vpn]
      in
      Hashtbl.replace t.vrf_table key v;
      v
  in
  Node_tbl.replace t.ce_vrf neighbor v;
  (* [deploy] armed every POP, and the interceptor reads [ce_vrf] per
     packet, so only a PE outside the backbone needs arming here. *)
  if Backbone.pop_of_node t.backbone pe = None then install_pe_interceptor t pe

let add_external_route t ~pe ~vpn ~prefix ~via ~site_id =
  attach_vrf_neighbor t ~pe ~vpn ~neighbor:via;
  let v =
    match Hashtbl.find_opt t.vrf_table (pe, vpn) with
    | Some v -> v
    | None -> assert false  (* attach_vrf_neighbor just created it *)
  in
  Vrf.install_via v ~prefix ~neighbor:via;
  let label =
    Label.Allocator.alloc (Plane.allocator (Network.plane t.net) pe)
  in
  Lfib.install
    (Plane.lfib (Network.plane t.net) pe)
    ~in_label:label
    { Lfib.op = Lfib.Pop_and_ip; next_hop = via };
  Hashtbl.replace t.external_labels (pe, label) ();
  Mpbgp.export_route t.mpbgp
    { Mpbgp.rd = rd_of_vpn vpn; prefix; next_hop_pe = pe; vpn_label = label;
      export_rts = [rt_of_vpn vpn]; site = site_id };
  ignore (Mpbgp.run t.mpbgp);
  reimport_all t;
  t.touches <- t.touches + 1

let remove_site t ~site_id =
  match Hashtbl.find_opt t.site_state site_id with
  | None -> false
  | Some (site, label) ->
    ignore (Membership.leave t.membership ~site_id);
    (match vrf t ~pe:site.Site.pe_node ~vpn:site.Site.vpn with
     | Some v -> ignore (Vrf.remove v site.Site.prefix)
     | None -> ());
    ignore
      (Lfib.uninstall
         (Plane.lfib (Network.plane t.net) site.Site.pe_node)
         ~in_label:label);
    ignore (Mpbgp.withdraw_site t.mpbgp ~pe:site.Site.pe_node ~site:site_id);
    Hashtbl.remove t.site_state site_id;
    Node_tbl.remove t.ce_vrf site.Site.ce_node;
    ignore (Mpbgp.run t.mpbgp);
    reimport_all t;
    t.touches <- t.touches + 1;
    true

let reconverge t =
  let rounds = Ospf.converge t.ospf in
  Network.refresh_igp ~members:t.domain t.net t.ospf;
  Ldp.refresh t.ldp;
  refresh_pe_next_hops t;
  (match t.te with
   | Some te ->
     ignore (Rsvp_te.handle_link_failure te);
     ignore (Rsvp_te.reroute_down te)
   | None -> ());
  rounds

type state_metrics = {
  sites : int;
  vpns : int;
  bgp_sessions : int;
  vpnv4_routes : int;
  lfib_entries : int;
  labels_allocated : int;
  vrf_count : int;
  control_messages : int;
  provisioning_touches : int;
}

let metrics t =
  let plane = Network.plane t.net in
  { sites = Membership.site_count t.membership;
    vpns = List.length (Membership.vpn_ids t.membership);
    bgp_sessions = Mpbgp.session_count t.mpbgp;
    vpnv4_routes = Mpbgp.total_routes t.mpbgp;
    lfib_entries = Plane.total_lfib_entries plane;
    labels_allocated = Plane.total_labels_allocated plane;
    vrf_count = Hashtbl.length t.vrf_table;
    control_messages =
      Membership.messages t.membership
      + Mpbgp.messages_sent t.mpbgp
      + Ldp.messages t.ldp;
    provisioning_touches = t.touches }
