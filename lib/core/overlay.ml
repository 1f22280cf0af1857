module Engine = Mvpn_sim.Engine
module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4
module Fib = Mvpn_net.Fib
module Packet = Mvpn_net.Packet
module Flow = Mvpn_net.Flow
module Radix = Mvpn_net.Radix
module Ospf = Mvpn_routing.Ospf
module Crypto = Mvpn_ipsec.Crypto
module Tunnel = Mvpn_ipsec.Tunnel

type t = {
  net : Network.t;
  cipher : Crypto.cipher;
  copy_tos : bool;
  ready_at : float;  (* IKE completion time; 0 = pre-keyed *)
  ospf : Ospf.t;
  mutable sites : Site.t list;  (* reverse join order *)
  (* Per-CE overlay routing: remote site prefix -> outbound tunnel. *)
  overlay_routes : (int, (Site.t * Tunnel.t) Radix.t) Hashtbl.t;
  (* Inbound demux at a CE: (outer src, outer dst) -> tunnel. *)
  rx_tunnels : (int * int, Tunnel.t) Hashtbl.t;
  (* (src site, dst site) -> tunnel, for tests and accounting. *)
  tunnels : (int * int, Tunnel.t) Hashtbl.t;
  (* One crypto engine per CE: time it next becomes free. *)
  crypto_free : (int, float ref) Hashtbl.t;
  mutable touches : int;
}

let loopback_of_site (site : Site.t) =
  Prefix.make
    (Ipv4.of_octets 198 18 (site.Site.id lsr 8) (site.Site.id land 0xFF))
    32

let loopback_addr site = Prefix.network (loopback_of_site site)

(* Occupy the CE's crypto engine for [cost] seconds starting no earlier
   than now; run [k] when the work completes. *)
let with_crypto t ce ~cost k =
  let engine = Network.engine t.net in
  let free =
    match Hashtbl.find_opt t.crypto_free ce with
    | Some r -> r
    | None ->
      let r = ref 0.0 in
      Hashtbl.replace t.crypto_free ce r;
      r
  in
  let now = Engine.now engine in
  let start = Float.max now !free in
  let done_at = start +. cost in
  free := done_at;
  Engine.schedule engine ~delay:(done_at -. now) k

(* Every overlay discard happens at a CE and consumes the packet. *)
let discard t (site : Site.t) packet reason =
  Network.drop_packet ~node:site.Site.ce_node ~packet t.net reason;
  Network.Consumed

let ce_interceptor t (site : Site.t) ~from packet =
  ignore from;
  let me = loopback_addr site in
  if Packet.has_outer packet then begin
    let outer = Packet.outer_header packet in
    if Ipv4.equal outer.Packet.dst me then
      (* Inbound tunnel endpoint. *)
      match
        Hashtbl.find_opt t.rx_tunnels
          (Ipv4.to_int outer.Packet.src, Ipv4.to_int outer.Packet.dst)
      with
      | None -> discard t site packet "unknown-tunnel"
      | Some tunnel ->
        (match Tunnel.decapsulate tunnel packet with
         | Tunnel.Decapsulated cost ->
           with_crypto t site.Site.ce_node ~cost (fun () ->
               Network.forward_ip t.net site.Site.ce_node packet);
           Network.Consumed
         | Tunnel.Replayed -> discard t site packet "replay"
         | Tunnel.Not_ours -> discard t site packet "unknown-tunnel")
    else Network.Continue
  end
  else
    (* Outbound: does the destination live behind a tunnel? *)
    let dst = packet.Packet.inner.Packet.dst in
    if Prefix.mem dst site.Site.prefix then Network.Continue
    else begin
      match Hashtbl.find_opt t.overlay_routes site.Site.ce_node with
      | None -> Network.Continue
      | Some table ->
        (match Radix.lookup_value table dst with
         | None -> Network.Continue
         | Some (_, tunnel) ->
           if Engine.now (Network.engine t.net) < t.ready_at then
             discard t site packet "ike-pending"
           else begin
             let cost = Tunnel.encapsulate tunnel packet in
             with_crypto t site.Site.ce_node ~cost (fun () ->
                 Network.forward_ip t.net site.Site.ce_node packet);
             Network.Consumed
           end)
    end

let overlay_table t ce =
  match Hashtbl.find_opt t.overlay_routes ce with
  | Some table -> table
  | None ->
    let table = Radix.create () in
    Hashtbl.replace t.overlay_routes ce table;
    table

let connect_pair t (a : Site.t) (b : Site.t) =
  if not (Hashtbl.mem t.tunnels (a.Site.id, b.Site.id)) then begin
    let tunnel =
      Tunnel.create ~copy_tos:t.copy_tos ~cipher:t.cipher
        ~local:(loopback_addr a) ~remote:(loopback_addr b) ()
    in
    Hashtbl.replace t.tunnels (a.Site.id, b.Site.id) tunnel;
    Radix.add (overlay_table t a.Site.ce_node) b.Site.prefix (b, tunnel);
    Hashtbl.replace t.rx_tunnels
      (Ipv4.to_int (loopback_addr a), Ipv4.to_int (loopback_addr b))
      tunnel;
    t.touches <- t.touches + 1
  end

let provision_ce t (site : Site.t) =
  Ospf.attach_prefix t.ospf site.Site.ce_node (loopback_of_site site);
  let ce_fib = Network.fib t.net site.Site.ce_node in
  Fib.add ce_fib site.Site.prefix
    { Fib.next_hop = Fib.local_delivery; cost = 0; source = Fib.Connected };
  Fib.add ce_fib (loopback_of_site site)
    { Fib.next_hop = Fib.local_delivery; cost = 0; source = Fib.Connected };
  Dataplane.add_interceptor (Network.dataplane t.net) site.Site.ce_node
    (ce_interceptor t site)

let deploy ?(cipher = Crypto.Des) ?(copy_tos = false) ?ike ~net ~sites () =
  let ready_at =
    match ike with
    | Some params ->
      Engine.now (Network.engine net)
      +. Mvpn_ipsec.Ike.initial_setup_delay params
    | None -> 0.0
  in
  let t =
    { net; cipher; copy_tos; ready_at;
      ospf = Ospf.create (Network.topology net);
      sites = []; overlay_routes = Hashtbl.create 16;
      rx_tunnels = Hashtbl.create 64; tunnels = Hashtbl.create 64;
      crypto_free = Hashtbl.create 16; touches = 0 }
  in
  (* Provision all CEs first, then converge the IGP once. *)
  List.iter (fun site -> provision_ce t site) sites;
  ignore (Ospf.converge t.ospf);
  Network.refresh_igp t.net t.ospf;
  List.iter
    (fun site ->
       let peers =
         List.filter (fun (s : Site.t) -> s.Site.vpn = site.Site.vpn) t.sites
       in
       List.iter
         (fun peer ->
            connect_pair t site peer;
            connect_pair t peer site)
         peers;
       t.sites <- site :: t.sites)
    sites;
  t

let tunnel_ready_at t = t.ready_at

let tunnel_count t = Hashtbl.length t.tunnels

let vc_count t = Hashtbl.length t.tunnels / 2

let replay_drops t =
  Hashtbl.fold (fun _ tn acc -> acc + Tunnel.replay_drops tn) t.tunnels 0

let ike_messages t = 9 * Hashtbl.length t.tunnels / 2
(* One IKE exchange (6 phase-1 + 3 phase-2 messages) secures both
   directions of a pair. *)

type state_metrics = {
  sites : int;
  vpns : int;
  tunnels : int;
  vcs : int;
  control_messages : int;
  provisioning_touches : int;
}

let metrics (t : t) =
  { sites = List.length t.sites;
    vpns =
      List.length
        (List.sort_uniq Int.compare
           (List.map (fun (s : Site.t) -> s.Site.vpn) t.sites));
    tunnels = tunnel_count t;
    vcs = vc_count t;
    control_messages = ike_messages t;
    provisioning_touches = t.touches }

let inject_replayed_copy (t : t) (a : Site.t) (b : Site.t) packet =
  match Hashtbl.find_opt t.tunnels (a.Site.id, b.Site.id) with
  | None -> false
  | Some _ ->
    (* Re-wrap the packet exactly as the original tunnel did; the
       uid→seq table still holds its old sequence number, so the
       replica presents a replayed sequence. *)
    Packet.encapsulate packet ~src:(loopback_addr a) ~dst:(loopback_addr b)
      ~proto:Flow.Esp
      ~overhead:(Mvpn_ipsec.Esp.overhead t.cipher ~payload:packet.Packet.size)
      ~copy_tos:t.copy_tos;
    packet.Packet.encrypted <- t.cipher <> Crypto.Null;
    Network.inject t.net b.Site.ce_node packet;
    true
