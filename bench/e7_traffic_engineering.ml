(* E7 — traffic engineering in the backbone (§5, claim C6/TE).

   A skewed demand matrix on the 12-POP ring: all demands want the same
   express chord. Shortest-path routing stacks them; constraint-based
   routing spreads them. Reported per demand count: max link load, the
   load spread, links carrying traffic, and overcommitted links. *)

open Mvpn_core
module Topology = Mvpn_sim.Topology
module Rsvp_te = Mvpn_mpls.Rsvp_te
module Plane = Mvpn_mpls.Plane

(* Demands aimed across the ring so their shortest paths all share the
   0-6 chord and its adjacent arcs. *)
let demand_matrix k =
  List.init k (fun i ->
      let src = i mod 3 in  (* POPs 0,1,2 *)
      let dst = 6 + (i mod 3) in  (* POPs 6,7,8 *)
      (src, dst, 12e6))

let run_mode ~admission k =
  let bb = Backbone.build ~pops:12 () in
  let topo = Backbone.topology bb in
  let plane = Plane.create ~nodes:(Topology.node_count topo) in
  let te = Rsvp_te.create topo plane in
  let pops = Backbone.pops bb in
  let accepted = ref 0 and refused = ref 0 in
  List.iter
    (fun (s, d, bw) ->
       match
         Rsvp_te.signal te ~admission ~src:pops.(s) ~dst:pops.(d)
           ~bandwidth:bw
       with
       | Ok _ -> incr accepted
       | Error _ -> incr refused)
    (demand_matrix k);
  let links = Topology.links topo in
  let fracs =
    List.filter_map
      (fun l ->
         let f = Rsvp_te.reserved_fraction te l in
         if f > 0.0 then Some f else None)
      links
  in
  let max_frac = List.fold_left Float.max 0.0 fracs in
  let mean_frac =
    if fracs = [] then 0.0
    else List.fold_left ( +. ) 0.0 fracs /. float_of_int (List.length fracs)
  in
  ( !accepted, !refused, max_frac, mean_frac, List.length fracs,
    List.length (Rsvp_te.overcommitted_links te) )

(* Packet-level: two 2 Mb/s flows whose shortest paths share one
   3 Mb/s link; with operator-placed explicit tunnels the second flow
   takes the long way and both arrive clean. *)
let packet_level ~use_te =
  let topo = Topology.create () in
  (* Ring of 6 at 3 Mb/s; sources at 0 and 5, sink at 2. *)
  let ids = Topology.ring topo 6 ~bandwidth:3e6 ~delay:0.002 in
  let engine = Mvpn_sim.Engine.create () in
  let net =
    Mvpn_core.Network.create
      ~policy:(Mvpn_core.Qos_mapping.Diffserv
                 Mvpn_core.Qos_mapping.default_diffserv_sched)
      engine topo
  in
  let module Network = Mvpn_core.Network in
  let module Fib = Mvpn_net.Fib in
  let module Prefix = Mvpn_net.Prefix in
  (* Plain IP routing: everything toward 10.2/16 via the short arc. *)
  let dest = Prefix.of_string_exn "10.2.0.0/16" in
  let route_via node nh =
    Fib.add (Network.fib net node) dest
      { Fib.next_hop = nh; cost = 1; source = Fib.Static }
  in
  route_via ids.(0) ids.(1);
  route_via ids.(1) ids.(2);
  route_via ids.(5) ids.(0);
  route_via ids.(3) ids.(2);
  route_via ids.(4) ids.(3);
  Fib.add (Network.fib net ids.(2)) dest
    { Fib.next_hop = Fib.local_delivery; cost = 0; source = Fib.Connected };
  let te = Rsvp_te.create topo (Network.plane net) in
  if use_te then begin
    (* Operator explicit routes: flow from 0 keeps the short arc; the
       flow from 5 is pinned the long way round. *)
    (match
       Rsvp_te.signal te ~explicit_path:[ids.(0); ids.(1); ids.(2)]
         ~src:ids.(0) ~dst:ids.(2) ~bandwidth:2e6
     with
     | Ok tn ->
       (match
          Plane.find_ftn (Network.plane net) ids.(0) (Rsvp_te.ingress_fec tn)
        with
        | Some e ->
          Network.add_interceptor net ids.(0) (fun ~from packet ->
              match from with
              | None when not (Mvpn_net.Packet.labelled packet) ->
                Mvpn_net.Packet.push_label packet ~label:e.Plane.push
                  ~exp:(Mvpn_net.Dscp.to_exp
                          (Mvpn_net.Packet.visible_dscp packet))
                  ~ttl:64;
                Network.transmit net ~from:ids.(0) ~to_:e.Plane.next_hop
                  packet;
                Network.Consumed
              | _ -> Network.Continue)
        | None -> ())
     | Error _ -> ());
    match
      Rsvp_te.signal te
        ~explicit_path:[ids.(5); ids.(4); ids.(3); ids.(2)]
        ~src:ids.(5) ~dst:ids.(2) ~bandwidth:2e6
    with
    | Ok tn ->
      (match
         Plane.find_ftn (Network.plane net) ids.(5) (Rsvp_te.ingress_fec tn)
       with
       | Some e ->
         Network.add_interceptor net ids.(5) (fun ~from packet ->
             match from with
             | None when not (Mvpn_net.Packet.labelled packet) ->
               Mvpn_net.Packet.push_label packet ~label:e.Plane.push
                 ~exp:(Mvpn_net.Dscp.to_exp
                         (Mvpn_net.Packet.visible_dscp packet))
                 ~ttl:64;
               Network.transmit net ~from:ids.(5) ~to_:e.Plane.next_hop
                 packet;
               Network.Consumed
             | _ -> Network.Continue)
       | None -> ())
    | Error _ -> ()
  end;
  let registry = Mvpn_core.Traffic.registry engine in
  Network.set_sink net ids.(2) (Mvpn_core.Traffic.sink registry);
  let send_from label node =
    let emit =
      Mvpn_core.Traffic.sender registry ~net ~src_node:node
        ~flow:(Mvpn_net.Flow.make
                 (Mvpn_net.Ipv4.of_octets 10 0 node 1)
                 (Mvpn_net.Ipv4.of_string_exn "10.2.0.1"))
        ~dscp:Mvpn_net.Dscp.best_effort
        ~collector:(Mvpn_core.Traffic.collector registry label)
        ()
    in
    Mvpn_core.Traffic.cbr engine ~start:0.0 ~stop:20.0 ~rate_bps:2e6
      ~packet_bytes:1500 emit
  in
  send_from "flow-a" ids.(0);
  send_from "flow-b" ids.(5);
  Mvpn_sim.Engine.run engine;
  ( Mvpn_core.Traffic.report registry "flow-a",
    Mvpn_core.Traffic.report registry "flow-b" )

let run () =
  Tables.heading
    "E7: skewed demands (12 Mb/s each) on a 45 Mb/s ring: SPF vs CSPF";
  let widths = [8; 10; 9; 9; 10; 10; 11; 8] in
  Tables.row widths
    [ "demands"; "mode"; "accept"; "refuse"; "max load"; "mean load";
      "links used"; "overcmt" ];
  Tables.rule widths;
  List.iter
    (fun k ->
       List.iter
         (fun (name, admission) ->
            let accepted, refused, max_f, mean_f, used, over =
              run_mode ~admission k
            in
            Tables.row widths
              [ string_of_int k; name; string_of_int accepted;
                string_of_int refused; Tables.pct max_f; Tables.pct mean_f;
                string_of_int used; string_of_int over ])
         [("spf", Rsvp_te.Igp_only); ("cspf", Rsvp_te.Cspf)];
       Tables.rule widths)
    [3; 6; 9; 12; 18; 24];
  Tables.note
    "\nExpected shape: SPF accepts everything onto the same few links —\n\
     max load passes 100%% and links overcommit as demands grow. CSPF\n\
     keeps max load <= 100%% by detouring over more links, and starts\n\
     refusing only when the whole region is genuinely full ('avoid\n\
     congested, constrained or disabled links', §3).";

  Tables.heading
    "E7b: packet level — two 2 Mb/s flows sharing a 3 Mb/s arc, explicit routes";
  let widths = [8; 10; 10; 10; 10] in
  Tables.row widths ["te"; "a loss"; "a p99 ms"; "b loss"; "b p99 ms"];
  Tables.rule widths;
  List.iter
    (fun use_te ->
       let a, b = packet_level ~use_te in
       Tables.row widths
         [ string_of_bool use_te;
           Tables.pct a.Mvpn_qos.Sla.loss;
           Tables.ms a.Mvpn_qos.Sla.p99_delay;
           Tables.pct b.Mvpn_qos.Sla.loss;
           Tables.ms b.Mvpn_qos.Sla.p99_delay ])
    [false; true];
  Tables.note
    "\nWithout TE both flows pile onto the short arc and together offer\n\
     4 Mb/s to a 3 Mb/s link — ~25%% combined loss. Explicit tunnels pin\n\
     the second flow the long way and both run clean: 'users can also\n\
     control QoS and general traffic flow more precisely' (§3)."
