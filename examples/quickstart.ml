(* Quickstart: provision an MPLS VPN across a small provider backbone
   and send traffic between two customer sites.

   Run with:  dune exec examples/quickstart.exe *)

open Mvpn_core
module Engine = Mvpn_sim.Engine
module Prefix = Mvpn_net.Prefix
module Flow = Mvpn_net.Flow

let () =
  Printf.printf "== MPLS VPN quickstart ==\n\n";

  (* 1. A provider backbone: 6 POPs in a ring with an express chord. *)
  let bb = Backbone.build ~pops:6 () in
  Printf.printf "Built a %d-POP backbone (%d unidirectional links).\n"
    (Backbone.pop_count bb)
    (Mvpn_sim.Topology.link_count (Backbone.topology bb));

  (* 2. One customer VPN with two sites on opposite sides of the ring.
        Private addressing: 10.0/16 at headquarters, 10.1/16 at the
        branch. *)
  let hq =
    Backbone.attach_site bb ~id:1 ~name:"headquarters" ~vpn:1
      ~prefix:(Prefix.of_string_exn "10.0.0.0/16") ~pop:0
  in
  let branch =
    Backbone.attach_site bb ~id:2 ~name:"branch" ~vpn:1
      ~prefix:(Prefix.of_string_exn "10.1.0.0/16") ~pop:3
  in

  (* 3. The simulated network and the VPN service on top of it. *)
  let engine = Engine.create () in
  let net =
    Network.create
      ~policy:(Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched)
      engine (Backbone.topology bb)
  in
  let vpn = Mpls_vpn.deploy ~net ~backbone:bb ~sites:[hq; branch] () in
  let m = Mpls_vpn.metrics vpn in
  Printf.printf
    "Deployed: %d sites, %d VRFs, %d VPNv4 routes, %d LFIB entries,\n\
    \          %d BGP sessions, %d control messages.\n\n"
    m.Mpls_vpn.sites m.Mpls_vpn.vrf_count m.Mpls_vpn.vpnv4_routes
    m.Mpls_vpn.lfib_entries m.Mpls_vpn.bgp_sessions
    m.Mpls_vpn.control_messages;

  (* 4. Measured traffic: a 10-second CBR stream from HQ to branch. *)
  let registry = Traffic.registry engine in
  Network.set_sink net branch.Site.ce_node (Traffic.sink registry);
  Network.set_sink net hq.Site.ce_node (Traffic.sink registry);
  let flow =
    Flow.make ~proto:Flow.Udp ~dst_port:4000 (Site.host hq 1)
      (Site.host branch 1)
  in
  let collector = Traffic.collector registry "hq->branch" in
  let emit =
    Traffic.sender registry ~net ~src_node:hq.Site.ce_node ~flow
      ~dscp:(Mvpn_net.Dscp.af 3 1) ~vpn:1 ~collector ()
  in
  Traffic.cbr engine ~start:0.0 ~stop:10.0 ~rate_bps:400_000.0
    ~packet_bytes:1000 emit;
  Engine.run engine;

  (* 5. What happened. *)
  let r = Traffic.report registry "hq->branch" in
  Printf.printf "Traffic report (hq -> branch):\n";
  Format.printf "  %a@." Mvpn_qos.Sla.pp_report r;
  Printf.printf "Network drops: %d\n" (Network.drops net);
  Printf.printf
    "\nThe stream crossed the backbone on a two-level label stack:\n\
     an LDP-learned transport label to the egress PE and a VPN label\n\
     selecting the customer route, with the AF31 marking carried in\n\
     the EXP bits of both.\n"
