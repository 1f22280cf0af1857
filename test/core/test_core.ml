open Mvpn_core
module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4
module Flow = Mvpn_net.Flow
module Packet = Mvpn_net.Packet
module Dscp = Mvpn_net.Dscp
module Fib = Mvpn_net.Fib
module Sla = Mvpn_qos.Sla
module Crypto = Mvpn_ipsec.Crypto

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let mk_site ~id ~vpn ~prefix ~ce ~pe =
  Site.make ~id ~name:(Printf.sprintf "s%d" id) ~vpn
    ~prefix:(pfx prefix) ~ce_node:ce ~pe_node:pe

(* --- Membership --------------------------------------------------------- *)

let test_membership_isolation () =
  let m = Membership.create ~pe_count:4 () in
  let s1 = mk_site ~id:1 ~vpn:1 ~prefix:"10.0.0.0/16" ~ce:10 ~pe:0 in
  let s2 = mk_site ~id:2 ~vpn:1 ~prefix:"10.1.0.0/16" ~ce:11 ~pe:1 in
  let s3 = mk_site ~id:3 ~vpn:2 ~prefix:"10.0.0.0/16" ~ce:12 ~pe:0 in
  let s4 = mk_site ~id:4 ~vpn:2 ~prefix:"10.1.0.0/16" ~ce:13 ~pe:1 in
  List.iter (Membership.join m) [s1; s2; s3; s4];
  let ids asking =
    List.map (fun (s : Site.t) -> s.Site.id) (Membership.discover m ~asking)
  in
  Alcotest.(check (list int)) "only own vpn" [2] (ids s1);
  Alcotest.(check (list int)) "vpn ids" [1; 2] (Membership.vpn_ids m);
  (* The registry answers from what the asker joined as, never from
     the record it presents. *)
  Alcotest.(check (list int)) "relabelled record sees its own vpn" [2]
    (ids { s1 with Site.vpn = 2 });
  let stranger = mk_site ~id:9 ~vpn:2 ~prefix:"10.9.0.0/16" ~ce:19 ~pe:2 in
  Alcotest.(check (list int)) "never joined sees nothing" [] (ids stranger);
  ignore (Membership.leave m ~site_id:2);
  Alcotest.(check (list int)) "departed sees nothing" [] (ids s2);
  (* Joins bill 1 + 2 per VPN, the leave 1 + 1, and each of the four
     queries one message, member or not. *)
  Alcotest.(check int) "one message per query" ((2 * 3) + 2 + 4)
    (Membership.messages m)

let test_membership_join_leave () =
  let m = Membership.create ~pe_count:4 () in
  let s1 = mk_site ~id:1 ~vpn:1 ~prefix:"10.0.0.0/16" ~ce:10 ~pe:0 in
  Membership.join m s1;
  Alcotest.check_raises "double join"
    (Invalid_argument "Membership.join: site 1 already a member") (fun () ->
      Membership.join m s1);
  Alcotest.(check bool) "leave" true (Membership.leave m ~site_id:1);
  Alcotest.(check bool) "gone" false (Membership.leave m ~site_id:1);
  Alcotest.(check int) "empty" 0 (Membership.site_count m)

let test_membership_mechanism_costs () =
  let build mechanism =
    let m = Membership.create ~mechanism ~pe_count:10 () in
    for i = 1 to 5 do
      Membership.join m
        (mk_site ~id:i ~vpn:1 ~prefix:"10.0.0.0/16" ~ce:(10 + i) ~pe:0)
    done;
    Membership.messages m
  in
  let directory = build Membership.Directory in
  let flooded = build Membership.Flooded in
  (* Directory: 1+0, 1+1 ... 1+4 = 15. Flooded: 10 per join = 50. *)
  Alcotest.(check int) "directory" 15 directory;
  Alcotest.(check int) "flooded" 50 flooded

(* Model check: random joins, leaves and discoveries across several
   VPNs, against a naive global list in join order. A discovery asks
   with a record that claims any VPN, so members, departed sites and
   sites that never joined all ask. *)
type membership_op =
  | M_join of (int * int)  (* vpn, pe *)
  | M_leave of int
  | M_discover of (int * int)  (* site id, claimed vpn *)

let membership_op_gen =
  let open QCheck.Gen in
  let vp = pair (int_range 0 3) (int_range 0 3) in
  frequency
    [ (4, map (fun x -> M_join x) vp);
      (3, map (fun i -> M_leave i) (int_range 0 30));
      (2, map (fun x -> M_discover x) (pair (int_range 0 30) (int_range 0 3)))
    ]

let membership_op_print = function
  | M_join (v, p) -> Printf.sprintf "join(%d,%d)" v p
  | M_leave i -> Printf.sprintf "leave(%d)" i
  | M_discover (i, v) -> Printf.sprintf "discover(%d as vpn %d)" i v

let membership_model_property =
  QCheck.Test.make ~name:"membership indexes agree with a naive model"
    ~count:200
    QCheck.(
      pair bool
        (make ~shrink:Shrink.list
           ~print:(fun l -> String.concat " " (List.map membership_op_print l))
           Gen.(list_size (int_range 0 40) membership_op_gen)))
    (fun (flooded, ops) ->
       let pe_count = 4 in
       let mechanism =
         if flooded then Membership.Flooded else Membership.Directory
       in
       let m = Membership.create ~mechanism ~pe_count () in
       (* The model: live sites in join order, and the message bill. *)
       let model = ref [] and msgs = ref 0 and next = ref 0 in
       let same_vpn vpn = List.filter (fun (s : Site.t) -> s.Site.vpn = vpn) in
       let cost others =
         if flooded then pe_count else 1 + List.length others
       in
       let fresh (vpn, pe) =
         let id = !next in
         incr next;
         mk_site ~id ~vpn ~prefix:"10.0.0.0/16" ~ce:id ~pe
       in
       let model_join (s : Site.t) =
         msgs := !msgs + cost (same_vpn s.Site.vpn !model);
         model := !model @ [ s ]
       in
       let find id =
         List.find_opt (fun (s : Site.t) -> s.Site.id = id) !model
       in
       let ids = List.map (fun (s : Site.t) -> s.Site.id) in
       let agree () =
         List.for_all
           (fun vpn ->
              ids (Membership.members m ~vpn) = ids (same_vpn vpn !model))
           [ 0; 1; 2; 3 ]
         && Membership.site_count m = List.length !model
         && Membership.messages m = !msgs
         && Membership.vpn_ids m
            = List.sort_uniq Int.compare
                (List.map (fun (s : Site.t) -> s.Site.vpn) !model)
         && List.for_all
              (fun pe ->
                 Membership.pe_attachment_count m ~pe
                 = List.length
                     (List.filter
                        (fun (s : Site.t) -> s.Site.pe_node = pe)
                        !model))
              [ 0; 1; 2; 3 ]
       in
       List.for_all
         (fun op ->
            let ok =
              match op with
              | M_join vp ->
                let s = fresh vp in
                Membership.join m s;
                model_join s;
                true
              | M_leave id ->
                let expected = find id in
                let got = Membership.leave m ~site_id:id in
                (match expected with
                 | None -> not got
                 | Some s ->
                   model :=
                     List.filter (fun (x : Site.t) -> x.Site.id <> id) !model;
                   msgs := !msgs + cost (same_vpn s.Site.vpn !model);
                   got)
              | M_discover (id, vpn) ->
                let asking =
                  mk_site ~id ~vpn ~prefix:"10.0.0.0/16" ~ce:id ~pe:0
                in
                let seen = ids (Membership.discover m ~asking) in
                incr msgs;
                (match find id with
                 | None -> seen = []
                 | Some s ->
                   seen
                   = List.filter (fun i -> i <> id)
                       (ids (same_vpn s.Site.vpn !model)))
            in
            ok && agree ())
         ops)

(* --- Vrf ------------------------------------------------------------------ *)

let test_vrf_overlapping_isolation () =
  let rd1 = { Mvpn_routing.Mpbgp.rd_asn = 65000; rd_assigned = 1 } in
  let rt1 = { Mvpn_routing.Mpbgp.rt_asn = 65000; rt_value = 1 } in
  let v1 =
    Vrf.create ~pe:0 ~rd:rd1 ~import_rts:[rt1] ~export_rts:[rt1]
  in
  let v2 =
    Vrf.create ~pe:0
      ~rd:{ Mvpn_routing.Mpbgp.rd_asn = 65000; rd_assigned = 2 }
      ~import_rts:[] ~export_rts:[]
  in
  (* Same prefix in both VRFs, different answers. *)
  let s1 = mk_site ~id:1 ~vpn:1 ~prefix:"10.0.0.0/16" ~ce:100 ~pe:0 in
  Vrf.add_local v1 s1;
  Vrf.install_remote v2 ~prefix:(pfx "10.0.0.0/16") ~pe:7 ~vpn_label:77;
  (match Vrf.lookup v1 (ip "10.0.1.1") with
   | Some (Vrf.Local_site s) -> Alcotest.(check int) "vrf1 local" 1 s.Site.id
   | _ -> Alcotest.fail "vrf1 wrong");
  (match Vrf.lookup v2 (ip "10.0.1.1") with
   | Some (Vrf.Remote_pe { pe; vpn_label }) ->
     Alcotest.(check int) "vrf2 pe" 7 pe;
     Alcotest.(check int) "vrf2 label" 77 vpn_label
   | _ -> Alcotest.fail "vrf2 wrong");
  Alcotest.(check int) "clear remote" 1 (Vrf.clear_remote v2);
  Alcotest.(check bool) "vrf2 now empty" true
    (Vrf.lookup v2 (ip "10.0.1.1") = None)

(* --- Qos_mapping --------------------------------------------------------- *)

let test_qos_bands () =
  Alcotest.(check int) "ef" 0 (Qos_mapping.band_of_dscp Dscp.ef);
  Alcotest.(check int) "af31" 1 (Qos_mapping.band_of_dscp (Dscp.af 3 1));
  Alcotest.(check int) "af11" 2 (Qos_mapping.band_of_dscp (Dscp.af 1 1));
  Alcotest.(check int) "be" 3 (Qos_mapping.band_of_dscp Dscp.best_effort);
  Alcotest.(check int) "cs6" 0 (Qos_mapping.band_of_dscp (Dscp.cs 6))

(* Accounting names its acct.vpnN.bandB gauges from band_of_dscp, so
   every code point a customer can mark must land in a known band. *)
let test_qos_bands_total () =
  for d = 0 to 63 do
    let band = Qos_mapping.band_of_dscp (Dscp.of_int_exn d) in
    if band < 0 || band > 3 then
      Alcotest.failf "dscp %d maps to band %d, want 0..3" d band
  done

let test_qos_band_of_packet_prefers_exp () =
  let p =
    Packet.make ~dscp:Dscp.best_effort ~now:0.0
      (Flow.make (ip "10.0.0.1") (ip "10.1.0.1"))
  in
  Alcotest.(check int) "unlabelled uses dscp" 3 (Qos_mapping.band_of_packet p);
  Packet.push_label p ~label:100 ~exp:5 ~ttl:64;
  Alcotest.(check int) "labelled uses exp" 0 (Qos_mapping.band_of_packet p)

let test_qos_mark_exp () =
  let p =
    Packet.make ~dscp:(Dscp.af 3 1) ~now:0.0
      (Flow.make (ip "10.0.0.1") (ip "10.1.0.1"))
  in
  Packet.push_label p ~label:100 ~exp:0 ~ttl:64;
  Packet.push_label p ~label:200 ~exp:0 ~ttl:64;
  Qos_mapping.mark_exp_from_dscp p;
  for i = 0 to Packet.label_depth p - 1 do
    Alcotest.(check int) "exp set" 3 (Packet.Shim.exp p.Packet.stack.(i))
  done

let test_qos_encrypted_tunnel_lands_in_be () =
  let p =
    Packet.make ~dscp:Dscp.ef ~now:0.0
      (Flow.make (ip "10.0.0.1") (ip "10.1.0.1"))
  in
  Packet.encapsulate p ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
    ~proto:Flow.Esp ~overhead:57 ~copy_tos:false;
  Alcotest.(check int) "no tos copy: best effort band" 3
    (Qos_mapping.band_of_packet p)

(* --- Network -------------------------------------------------------------- *)

let line_net () =
  let topo = Topology.create () in
  let ids = Topology.line topo 3 ~bandwidth:1e6 ~delay:0.001 in
  let engine = Engine.create () in
  let net = Network.create engine topo in
  (engine, topo, net, ids)

(* [refresh_igp] updates in place but must leave exactly what the old
   clear-and-refill left ([Fib.clear_source Igp], then add every OSPF
   route), and move each FIB's generation exactly when that would have:
   the dataplane recompiles a node iff its generation moved. Checked in
   lockstep against reference tables through a steady converge, a
   flap, a partition and the heal, with a static route beside the IGP
   ones. *)
let test_network_refresh_igp_matches_clear_and_refill () =
  let module Ospf = Mvpn_routing.Ospf in
  let topo = Topology.create () in
  let ids = Topology.ring topo 5 ~bandwidth:1e6 ~delay:0.001 in
  let net = Network.create (Engine.create ()) topo in
  let refs = Array.map (fun _ -> Fib.create ()) ids in
  let static = { Fib.next_hop = ids.(1); cost = 9; source = Fib.Static } in
  List.iter
    (fun fib ->
       Fib.add fib (pfx "10.2.0.0/16") static;
       Fib.add fib (pfx "192.0.2.0/24") static)
    [ Network.fib net ids.(0); refs.(0) ];
  let ospf = Ospf.create topo in
  Array.iteri
    (fun i v ->
       Ospf.attach_prefix ospf v (Prefix.make (Ipv4.of_octets 10 i 0 0) 16))
    ids;
  let step name =
    ignore (Ospf.converge ospf);
    let gens = Array.map (fun v -> Fib.generation (Network.fib net v)) ids in
    let ref_gens = Array.map Fib.generation refs in
    Network.refresh_igp net ospf;
    Array.iteri
      (fun i v ->
         ignore (Fib.clear_source refs.(i) Fib.Igp);
         Fib.iter (fun p r -> Fib.add refs.(i) p r) (Ospf.fib ospf v);
         let fib = Network.fib net v in
         Alcotest.(check bool)
           (Printf.sprintf "%s: node %d routes" name v)
           true
           (Fib.to_list fib = Fib.to_list refs.(i));
         Alcotest.(check bool)
           (Printf.sprintf "%s: node %d generation moved" name v)
           (Fib.generation refs.(i) <> ref_gens.(i))
           (Fib.generation fib <> gens.(i)))
      ids
  in
  step "first";
  step "steady";
  Topology.set_duplex_state topo ids.(1) ids.(2) false;
  step "flap";
  Topology.set_duplex_state topo ids.(3) ids.(4) false;
  step "partition";
  Topology.set_duplex_state topo ids.(1) ids.(2) true;
  Topology.set_duplex_state topo ids.(3) ids.(4) true;
  step "heal"

let test_network_ip_forwarding () =
  let engine, _topo, net, ids = line_net () in
  Fib.add (Network.fib net ids.(0)) (pfx "10.9.0.0/16")
    { Fib.next_hop = ids.(1); cost = 1; source = Fib.Static };
  Fib.add (Network.fib net ids.(1)) (pfx "10.9.0.0/16")
    { Fib.next_hop = ids.(2); cost = 1; source = Fib.Static };
  Fib.add (Network.fib net ids.(2)) (pfx "10.9.0.0/16")
    { Fib.next_hop = Fib.local_delivery; cost = 0; source = Fib.Connected };
  let got = ref None in
  Network.set_sink net ids.(2) (fun p -> got := Some p);
  let p =
    Packet.make ~now:0.0 (Flow.make (ip "10.1.0.1") (ip "10.9.0.1"))
  in
  Network.inject net ids.(0) p;
  Engine.run engine;
  (match !got with
   | Some d ->
     Alcotest.(check int) "same packet" p.Packet.uid d.Packet.uid;
     Alcotest.(check int) "ttl decremented twice" (Packet.default_ttl - 2)
       d.Packet.inner.Packet.ttl
   | None -> Alcotest.fail "not delivered");
  Alcotest.(check int) "no drops" 0 (Network.drops net)

let test_network_no_route_drop () =
  let engine, _topo, net, ids = line_net () in
  let p =
    Packet.make ~now:0.0 (Flow.make (ip "10.1.0.1") (ip "10.9.0.1"))
  in
  Network.inject net ids.(0) p;
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "counted" [("no-route", 1)]
    (Network.drop_counts net)

let test_network_ttl_drop () =
  let engine, _topo, net, ids = line_net () in
  Fib.add (Network.fib net ids.(0)) Prefix.default
    { Fib.next_hop = ids.(1); cost = 1; source = Fib.Static };
  let p =
    Packet.make ~now:0.0 (Flow.make (ip "10.1.0.1") (ip "10.9.0.1"))
  in
  p.Packet.inner.Packet.ttl <- 1;
  Network.inject net ids.(0) p;
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "ttl drop" [("ip-ttl", 1)]
    (Network.drop_counts net)

let test_network_interceptor_consumes () =
  let engine, _topo, net, ids = line_net () in
  let seen = ref 0 in
  Network.add_interceptor net ids.(0) (fun ~from:_ _ ->
      incr seen;
      Network.Consumed);
  let p =
    Packet.make ~now:0.0 (Flow.make (ip "10.1.0.1") (ip "10.9.0.1"))
  in
  Network.inject net ids.(0) p;
  Engine.run engine;
  Alcotest.(check int) "intercepted" 1 !seen;
  Alcotest.(check int) "nothing dropped" 0 (Network.drops net)

let test_network_label_forwarding () =
  let engine, _topo, net, ids = line_net () in
  let plane = Network.plane net in
  Mvpn_mpls.Lfib.install
    (Mvpn_mpls.Plane.lfib plane ids.(1))
    ~in_label:100
    { Mvpn_mpls.Lfib.op = Mvpn_mpls.Lfib.Pop; next_hop = ids.(2) };
  Fib.add (Network.fib net ids.(2)) (pfx "10.9.0.0/16")
    { Fib.next_hop = Fib.local_delivery; cost = 0; source = Fib.Connected };
  let got = ref false in
  Network.set_sink net ids.(2) (fun _ -> got := true);
  let p =
    Packet.make ~now:0.0 (Flow.make (ip "10.1.0.1") (ip "10.9.0.1"))
  in
  Packet.push_label p ~label:100 ~exp:0 ~ttl:64;
  Network.transmit net ~from:ids.(0) ~to_:ids.(1) p;
  Engine.run engine;
  Alcotest.(check bool) "delivered over lsp" true !got

(* --- Backbone ------------------------------------------------------------- *)

let test_backbone_shape () =
  let bb = Backbone.build () in
  Alcotest.(check int) "pops" 12 (Backbone.pop_count bb);
  (* 12 ring + 3 chords = 15 duplex = 30 links. *)
  Alcotest.(check int) "links" 30 (Topology.link_count (Backbone.topology bb));
  Alcotest.(check bool) "loopbacks distinct" true
    (not
       (Prefix.equal (Backbone.loopback bb ~pop:0) (Backbone.loopback bb ~pop:1)));
  let s =
    Backbone.attach_site bb ~id:1 ~name:"x" ~vpn:1 ~prefix:(pfx "10.0.0.0/16")
      ~pop:3
  in
  Alcotest.(check (option int)) "pe is the pop" (Some 3)
    (Backbone.pop_of_node bb s.Site.pe_node);
  Alcotest.(check (option int)) "ce is not a pop" None
    (Backbone.pop_of_node bb s.Site.ce_node)

(* --- Mpls_vpn end to end --------------------------------------------------- *)

(* Small backbone: 4 pops, 2 VPNs with identical prefixes, one site pair
   each on pops 0 and 2. *)
type e2e = {
  engine : Engine.t;
  net : Network.t;
  bb : Backbone.t;
  vpn : Mpls_vpn.t;
  sites : Site.t list;
}

let build_e2e ?(use_te = false) ?(policy = Qos_mapping.Best_effort) () =
  let bb = Backbone.build ~pops:4 ~chords:[] () in
  let attach id vpn prefix pop =
    Backbone.attach_site bb ~id ~name:(Printf.sprintf "s%d" id) ~vpn
      ~prefix:(pfx prefix) ~pop
  in
  let s11 = attach 11 1 "10.0.0.0/16" 0 in
  let s12 = attach 12 1 "10.1.0.0/16" 2 in
  let s21 = attach 21 2 "10.0.0.0/16" 0 in
  let s22 = attach 22 2 "10.1.0.0/16" 2 in
  let engine = Engine.create () in
  let net = Network.create ~policy engine (Backbone.topology bb) in
  let sites = [s11; s12; s21; s22] in
  let vpn = Mpls_vpn.deploy ~use_te ~net ~backbone:bb ~sites () in
  { engine; net; bb; vpn; sites }

let site_by_id e id =
  List.find (fun (s : Site.t) -> s.Site.id = id) e.sites

let send_between e ~(src : Site.t) ~(dst : Site.t) =
  let p =
    Packet.make ~vpn:src.Site.vpn ~now:(Engine.now e.engine)
      (Flow.make
         (Prefix.nth_host src.Site.prefix 1)
         (Prefix.nth_host dst.Site.prefix 1))
  in
  Network.inject e.net src.Site.ce_node p;
  p

let test_mvpn_end_to_end_delivery () =
  let e = build_e2e () in
  let s11 = site_by_id e 11 and s12 = site_by_id e 12 in
  let delivered = ref [] in
  Network.set_sink e.net s12.Site.ce_node (fun p ->
      delivered := p :: !delivered);
  let p = send_between e ~src:s11 ~dst:s12 in
  Engine.run e.engine;
  (match !delivered with
   | [d] ->
     Alcotest.(check int) "the packet" p.Packet.uid d.Packet.uid;
     Alcotest.(check bool) "labels all popped" false (Packet.labelled d)
   | _ -> Alcotest.failf "expected 1 delivery, got %d (drops: %d)"
            (List.length !delivered) (Network.drops e.net));
  Alcotest.(check int) "no drops" 0 (Network.drops e.net)

let test_mvpn_isolation_with_overlapping_prefixes () =
  let e = build_e2e () in
  let s11 = site_by_id e 11 and s12 = site_by_id e 12 in
  let s21 = site_by_id e 21 and s22 = site_by_id e 22 in
  (* Both VPNs' destination sites share the address plan. *)
  Alcotest.(check bool) "prefixes overlap" true
    (Prefix.equal s12.Site.prefix s22.Site.prefix);
  let vpn1_got = ref 0 and vpn2_got = ref 0 in
  Network.set_sink e.net s12.Site.ce_node (fun p ->
      Alcotest.(check (option int)) "vpn1 sink gets vpn1 traffic" (Some 1)
        p.Packet.vpn;
      incr vpn1_got);
  Network.set_sink e.net s22.Site.ce_node (fun p ->
      Alcotest.(check (option int)) "vpn2 sink gets vpn2 traffic" (Some 2)
        p.Packet.vpn;
      incr vpn2_got);
  for _ = 1 to 5 do
    ignore (send_between e ~src:s11 ~dst:s12);
    ignore (send_between e ~src:s21 ~dst:s22)
  done;
  Engine.run e.engine;
  Alcotest.(check int) "vpn1 deliveries" 5 !vpn1_got;
  Alcotest.(check int) "vpn2 deliveries" 5 !vpn2_got;
  Alcotest.(check int) "no leaks or losses" 0 (Network.drops e.net)

let test_mvpn_no_cross_vpn_route () =
  let e = build_e2e () in
  let s11 = site_by_id e 11 in
  (* VPN 1's site sends to an address that only exists in VPN 2's
     address plan... which is the same plan; but send to a prefix only
     VPN 2 announced: give VPN 2 an extra site prefix. Simpler: send to
     an address in no VRF route. *)
  let p =
    Packet.make ~vpn:1 ~now:0.0
      (Flow.make (Prefix.nth_host s11.Site.prefix 1) (ip "172.20.0.1"))
  in
  Network.inject e.net s11.Site.ce_node p;
  Engine.run e.engine;
  Alcotest.(check (list (pair string int))) "vrf refuses"
    [("vrf-no-route", 1)]
    (Network.drop_counts e.net)

let test_mvpn_hairpin_same_pe () =
  (* Two VPN-1 sites on the same pop: traffic hairpins at the shared PE
     without entering the core. *)
  let bb = Backbone.build ~pops:4 ~chords:[] () in
  let attach id prefix pop =
    Backbone.attach_site bb ~id ~name:(Printf.sprintf "s%d" id) ~vpn:1
      ~prefix:(pfx prefix) ~pop
  in
  let a = attach 1 "10.0.0.0/16" 0 in
  let b = attach 2 "10.3.0.0/16" 0 in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let vpn = Mpls_vpn.deploy ~net ~backbone:bb ~sites:[a; b] () in
  ignore vpn;
  let delivered = ref 0 in
  Network.set_sink net b.Site.ce_node (fun p ->
      Alcotest.(check bool) "no labels on hairpin" false (Packet.labelled p);
      incr delivered);
  let p =
    Packet.make ~vpn:1 ~now:0.0
      (Flow.make (Prefix.nth_host a.Site.prefix 1)
         (Prefix.nth_host b.Site.prefix 1))
  in
  Network.inject net a.Site.ce_node p;
  Engine.run engine;
  Alcotest.(check int) "hairpinned" 1 !delivered;
  Alcotest.(check int) "no drops" 0 (Network.drops net)

let test_mvpn_uses_label_switching () =
  let e = build_e2e () in
  let s11 = site_by_id e 11 and s12 = site_by_id e 12 in
  Network.set_sink e.net s12.Site.ce_node (fun _ -> ());
  (* Snoop on the PE's core-facing port: packets leaving pop0 toward
     the core must be labelled. *)
  ignore (send_between e ~src:s11 ~dst:s12);
  (* Inspect while queued: inject, then check before running. *)
  let topo = Network.topology e.net in
  let labelled = ref false in
  (* Intercept at the first core hop instead. *)
  let pops = Backbone.pops e.bb in
  Array.iter
    (fun pop ->
       if pop <> s11.Site.pe_node then
         Network.add_interceptor e.net pop (fun ~from:_ p ->
             if Packet.labelled p then labelled := true;
             Network.Continue))
    pops;
  ignore (send_between e ~src:s11 ~dst:s12);
  Engine.run e.engine;
  ignore topo;
  Alcotest.(check bool) "transit saw labels" true !labelled

let test_mvpn_metrics_linear_growth () =
  (* MPLS VPN state grows linearly with sites; overlay VCs grow
     quadratically. Compare 4 vs 8 sites in one VPN. *)
  let build n =
    let bb = Backbone.build ~pops:4 ~chords:[] () in
    let sites =
      List.init n (fun i ->
          Backbone.attach_site bb ~id:i ~name:(Printf.sprintf "s%d" i)
            ~vpn:1
            ~prefix:(Prefix.make (Ipv4.of_octets 10 i 0 0) 16)
            ~pop:(i mod 4))
    in
    let engine = Engine.create () in
    let net = Network.create engine (Backbone.topology bb) in
    let vpn = Mpls_vpn.deploy ~net ~backbone:bb ~sites () in
    (Mpls_vpn.metrics vpn, Overlay.deploy ~net ~sites ())
  in
  let m4, _ = build 4 in
  let m8, o8 = build 8 in
  Alcotest.(check int) "vpnv4 routes = sites (n=4)" 4
    m4.Mpls_vpn.vpnv4_routes;
  Alcotest.(check int) "vpnv4 routes = sites (n=8)" 8
    m8.Mpls_vpn.vpnv4_routes;
  Alcotest.(check int) "overlay vcs quadratic" (8 * 7 / 2)
    (Overlay.vc_count o8)

let test_mvpn_remove_site () =
  let e = build_e2e () in
  let s12 = site_by_id e 12 in
  Alcotest.(check bool) "removed" true
    (Mpls_vpn.remove_site e.vpn ~site_id:12);
  (* VPN 1's other site can no longer reach it. *)
  let s11 = site_by_id e 11 in
  ignore (send_between e ~src:s11 ~dst:s12);
  Engine.run e.engine;
  Alcotest.(check bool) "route is gone" true
    (List.mem_assoc "vrf-no-route" (Network.drop_counts e.net))

let test_mvpn_reconverge_after_failure () =
  (* 4-pop ring: kill one ring link on the s11->s12 path; traffic must
     re-route the other way around the ring. *)
  let e = build_e2e () in
  let s11 = site_by_id e 11 and s12 = site_by_id e 12 in
  let delivered = ref 0 in
  Network.set_sink e.net s12.Site.ce_node (fun _ -> incr delivered);
  ignore (send_between e ~src:s11 ~dst:s12);
  Engine.run e.engine;
  Alcotest.(check int) "before failure" 1 !delivered;
  let pops = Backbone.pops e.bb in
  Topology.set_duplex_state (Network.topology e.net) pops.(0) pops.(1) false;
  let rounds = Mpls_vpn.reconverge e.vpn in
  Alcotest.(check bool) "reflooded" true (rounds > 0);
  ignore (send_between e ~src:s11 ~dst:s12);
  Engine.run e.engine;
  Alcotest.(check int) "after failure" 2 !delivered

let test_mvpn_te_tunnels () =
  let e = build_e2e ~use_te:true () in
  let s11 = site_by_id e 11 and s12 = site_by_id e 12 in
  let delivered = ref 0 in
  Network.set_sink e.net s12.Site.ce_node (fun _ -> incr delivered);
  ignore (send_between e ~src:s11 ~dst:s12);
  Engine.run e.engine;
  Alcotest.(check int) "delivered over te" 1 !delivered;
  match Mpls_vpn.te e.vpn with
  | Some te ->
    Alcotest.(check bool) "tunnels exist" true
      (List.length (Mvpn_mpls.Rsvp_te.tunnels te) > 0)
  | None -> Alcotest.fail "te expected"

let test_mvpn_dscp_to_exp_mapping () =
  let e = build_e2e ~policy:(Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched) () in
  let s11 = site_by_id e 11 and s12 = site_by_id e 12 in
  Network.set_sink e.net s12.Site.ce_node (fun _ -> ());
  let exp_seen = ref (-1) in
  let pops = Backbone.pops e.bb in
  Array.iter
    (fun pop ->
       if pop <> s11.Site.pe_node then
         Network.add_interceptor e.net pop (fun ~from:_ p ->
             if Packet.labelled p then
               exp_seen := Packet.Shim.exp (Packet.top_packed p);
             Network.Continue))
    pops;
  let p =
    Packet.make ~vpn:1 ~dscp:Dscp.ef ~now:0.0
      (Flow.make
         (Prefix.nth_host s11.Site.prefix 1)
         (Prefix.nth_host s12.Site.prefix 1))
  in
  Network.inject e.net s11.Site.ce_node p;
  Engine.run e.engine;
  Alcotest.(check int) "EF mapped to exp 5" 5 !exp_seen

let test_mvpn_multicast_reaches_group () =
  (* Four VPN-1 sites (two sharing a PE) plus one VPN-2 site: a group
     send from s11 must reach every other VPN-1 site exactly once and
     VPN 2 never. *)
  let bb = Backbone.build ~pops:4 ~chords:[] () in
  let attach id vpn prefix pop =
    Backbone.attach_site bb ~id ~name:(Printf.sprintf "s%d" id) ~vpn
      ~prefix:(pfx prefix) ~pop
  in
  let s11 = attach 11 1 "10.0.0.0/16" 0 in
  let s12 = attach 12 1 "10.1.0.0/16" 2 in
  let s13 = attach 13 1 "10.2.0.0/16" 2 in
  let s14 = attach 14 1 "10.3.0.0/16" 0 in
  let s21 = attach 21 2 "10.0.0.0/16" 1 in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let _vpn =
    Mpls_vpn.deploy ~net ~backbone:bb ~sites:[s11; s12; s13; s14; s21] ()
  in
  let copies = Hashtbl.create 8 in
  List.iter
    (fun (s : Site.t) ->
       Network.set_sink net s.Site.ce_node (fun _ ->
           Hashtbl.replace copies s.Site.id
             (1 + Option.value ~default:0 (Hashtbl.find_opt copies s.Site.id))))
    [s11; s12; s13; s14; s21];
  let group =
    Packet.make ~vpn:1 ~dscp:Dscp.ef ~now:0.0
      (Flow.make (Prefix.nth_host s11.Site.prefix 1) (ip "239.1.2.3"))
  in
  Network.inject net s11.Site.ce_node group;
  Engine.run engine;
  let got id = Option.value ~default:0 (Hashtbl.find_opt copies id) in
  Alcotest.(check int) "s12 one copy" 1 (got 12);
  Alcotest.(check int) "s13 one copy" 1 (got 13);
  Alcotest.(check int) "s14 one copy (same-PE hairpin)" 1 (got 14);
  Alcotest.(check int) "sender gets nothing back" 0 (got 11);
  Alcotest.(check int) "other vpn untouched" 0 (got 21);
  Alcotest.(check int) "no drops" 0 (Network.drops net)

let test_mvpn_multicast_keeps_marking () =
  (* Replicas carry the sender's DSCP: group voice stays EF. *)
  let e = build_e2e () in
  let s11 = site_by_id e 11 and s12 = site_by_id e 12 in
  let seen_dscp = ref None in
  Network.set_sink e.net s12.Site.ce_node (fun p ->
      seen_dscp := Some (Packet.visible_dscp p));
  let group =
    Packet.make ~vpn:1 ~dscp:Dscp.ef ~now:0.0
      (Flow.make (Prefix.nth_host s11.Site.prefix 1) (ip "239.9.9.9"))
  in
  Network.inject e.net s11.Site.ce_node group;
  Engine.run e.engine;
  match !seen_dscp with
  | Some d -> Alcotest.(check bool) "EF preserved" true (Dscp.equal d Dscp.ef)
  | None -> Alcotest.fail "no replica delivered"

(* --- Overlay end to end ----------------------------------------------------- *)

type oe2e = {
  oengine : Engine.t;
  onet : Network.t;
  osites : Site.t list;
  odeploy : Overlay.t;
}

let build_overlay ?(cipher = Crypto.Des) ?(copy_tos = false) () =
  let bb = Backbone.build ~pops:4 ~chords:[] () in
  let attach id vpn prefix pop =
    Backbone.attach_site bb ~id ~name:(Printf.sprintf "s%d" id) ~vpn
      ~prefix:(pfx prefix) ~pop
  in
  let s1 = attach 1 1 "10.0.0.0/16" 0 in
  let s2 = attach 2 1 "10.1.0.0/16" 2 in
  let s3 = attach 3 2 "10.0.0.0/16" 1 in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let sites = [s1; s2; s3] in
  let odeploy = Overlay.deploy ~cipher ~copy_tos ~net ~sites () in
  { oengine = engine; onet = net; osites = sites; odeploy }

let osite e id = List.find (fun (s : Site.t) -> s.Site.id = id) e.osites

let test_overlay_end_to_end () =
  let e = build_overlay () in
  let s1 = osite e 1 and s2 = osite e 2 in
  let delivered = ref [] in
  Network.set_sink e.onet s2.Site.ce_node (fun p -> delivered := p :: !delivered);
  let p =
    Packet.make ~vpn:1 ~now:0.0
      (Flow.make (Prefix.nth_host s1.Site.prefix 1)
         (Prefix.nth_host s2.Site.prefix 1))
  in
  Network.inject e.onet s1.Site.ce_node p;
  Engine.run e.oengine;
  (match !delivered with
   | [d] ->
     Alcotest.(check int) "delivered" p.Packet.uid d.Packet.uid;
     Alcotest.(check bool) "decapsulated" true (not (Packet.has_outer d));
     Alcotest.(check bool) "decrypted" false d.Packet.encrypted
   | _ -> Alcotest.failf "expected 1 delivery (drops: %d)" (Network.drops e.onet))

let test_overlay_tunnel_counts () =
  let e = build_overlay () in
  (* VPN 1 has 2 sites -> 1 VC (2 directional); VPN 2 has 1 site -> 0. *)
  Alcotest.(check int) "vcs" 1 (Overlay.vc_count e.odeploy);
  Alcotest.(check int) "tunnels" 2 (Overlay.tunnel_count e.odeploy)

let test_overlay_replay_dropped () =
  let e = build_overlay () in
  let s1 = osite e 1 and s2 = osite e 2 in
  let delivered = ref [] in
  Network.set_sink e.onet s2.Site.ce_node (fun p -> delivered := p :: !delivered);
  let p =
    Packet.make ~vpn:1 ~now:0.0
      (Flow.make (Prefix.nth_host s1.Site.prefix 1)
         (Prefix.nth_host s2.Site.prefix 1))
  in
  Network.inject e.onet s1.Site.ce_node p;
  Engine.run e.oengine;
  Alcotest.(check int) "one delivery" 1 (List.length !delivered);
  (* Attacker re-presents the delivered packet. *)
  let replica = List.hd !delivered in
  Alcotest.(check bool) "tunnel exists" true
    (Overlay.inject_replayed_copy e.odeploy s1 s2 replica);
  Engine.run e.oengine;
  Alcotest.(check int) "still one delivery" 1 (List.length !delivered);
  Alcotest.(check int) "replay counted" 1 (Overlay.replay_drops e.odeploy)

let test_overlay_crypto_delays_delivery () =
  let run cipher =
    let e = build_overlay ~cipher () in
    let s1 = osite e 1 and s2 = osite e 2 in
    let at = ref 0.0 in
    Network.set_sink e.onet s2.Site.ce_node (fun _ ->
        at := Engine.now e.oengine);
    let p =
      Packet.make ~vpn:1 ~size:4096 ~now:0.0
        (Flow.make (Prefix.nth_host s1.Site.prefix 1)
           (Prefix.nth_host s2.Site.prefix 1))
    in
    Network.inject e.onet s1.Site.ce_node p;
    Engine.run e.oengine;
    !at
  in
  let null_at = run Crypto.Null in
  let des_at = run Crypto.Des in
  let des3_at = run Crypto.Des3 in
  Alcotest.(check bool) "des slower than null" true (des_at > null_at);
  Alcotest.(check bool) "3des slower than des" true (des3_at > des_at)

let test_overlay_ike_gates_traffic () =
  let bb = Backbone.build ~pops:4 ~chords:[] () in
  let s1 =
    Backbone.attach_site bb ~id:1 ~name:"s1" ~vpn:1
      ~prefix:(pfx "10.0.0.0/16") ~pop:0
  in
  let s2 =
    Backbone.attach_site bb ~id:2 ~name:"s2" ~vpn:1
      ~prefix:(pfx "10.1.0.0/16") ~pop:2
  in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let ike = Mvpn_ipsec.Ike.default_params ~rtt:0.1 in
  let ov = Overlay.deploy ~ike ~net ~sites:[s1; s2] () in
  let ready = Overlay.tunnel_ready_at ov in
  Alcotest.(check bool) "keying takes time" true (ready > 0.3);
  let delivered = ref 0 in
  Network.set_sink net s2.Site.ce_node (fun _ -> incr delivered);
  let send () =
    Network.inject net s1.Site.ce_node
      (Packet.make ~vpn:1 ~now:(Engine.now engine)
         (Flow.make (Prefix.nth_host s1.Site.prefix 1)
            (Prefix.nth_host s2.Site.prefix 1)))
  in
  (* Before keying completes: dropped as pending. *)
  send ();
  Engine.run engine;
  Alcotest.(check int) "early packet dropped" 0 !delivered;
  Alcotest.(check bool) "reason recorded" true
    (List.mem_assoc "ike-pending" (Network.drop_counts net));
  (* After keying: flows. *)
  Engine.schedule_at engine ~time:(ready +. 0.01) send;
  Engine.run engine;
  Alcotest.(check int) "late packet delivered" 1 !delivered

let test_overlay_cross_vpn_has_no_tunnel () =
  let e = build_overlay () in
  let s1 = osite e 1 and s3 = osite e 3 in
  (* s3 is in VPN 2: no tunnel from s1; and s3's prefix overlaps s1's
     own (10.0/16), so the packet stays local — never crosses VPNs. *)
  let p =
    Packet.make ~vpn:1 ~now:0.0
      (Flow.make
         (Prefix.nth_host s1.Site.prefix 1)
         (Prefix.nth_host s3.Site.prefix 200))
  in
  let leaked = ref false in
  Network.set_sink e.onet s3.Site.ce_node (fun _ -> leaked := true);
  let own = ref 0 in
  Network.set_sink e.onet s1.Site.ce_node (fun _ -> incr own);
  Network.inject e.onet s1.Site.ce_node p;
  Engine.run e.oengine;
  Alcotest.(check bool) "no leak to vpn 2" false !leaked

(* --- Tracing ----------------------------------------------------------------- *)

let test_trace_sequence () =
  let e = build_e2e () in
  let s11 = site_by_id e 11 and s12 = site_by_id e 12 in
  Network.set_sink e.net s12.Site.ce_node (fun _ -> ());
  let events = ref [] in
  Network.set_tracer e.net (Some (fun ev -> events := ev :: !events));
  let p = send_between e ~src:s11 ~dst:s12 in
  Engine.run e.engine;
  let events = List.rev !events in
  Alcotest.(check bool) "events flowed" true (List.length events >= 4);
  (* All events concern our packet. *)
  Alcotest.(check bool) "uid consistent" true
    (List.for_all (fun ev -> ev.Network.trace_uid = p.Packet.uid) events);
  (* Times never decrease. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Network.trace_time <= b.Network.trace_time && monotone rest
    | [_] | [] -> true
  in
  Alcotest.(check bool) "time monotone" true (monotone events);
  (* The journey ends in exactly one delivery... *)
  Alcotest.(check int) "one delivery" 1
    (List.length
       (List.filter
          (fun ev -> ev.Network.trace_action = Network.Trace_deliver)
          events));
  (* ...and somewhere in the middle the packet was labelled. *)
  Alcotest.(check bool) "labels observed" true
    (List.exists (fun ev -> ev.Network.trace_labels <> []) events);
  (* Turning the tracer off stops events. *)
  Network.set_tracer e.net None;
  let before = List.length events in
  ignore (send_between e ~src:s11 ~dst:s12);
  Engine.run e.engine;
  Alcotest.(check int) "tracer off" before (List.length (List.rev events))

let test_trace_drop_reported () =
  let e = build_e2e () in
  let s11 = site_by_id e 11 in
  let drops = ref [] in
  Network.set_tracer e.net
    (Some
       (fun ev ->
          match ev.Network.trace_action with
          | Network.Trace_drop reason -> drops := reason :: !drops
          | _ -> ()));
  let p =
    Packet.make ~vpn:1 ~now:0.0
      (Flow.make (Prefix.nth_host s11.Site.prefix 1) (ip "172.29.0.1"))
  in
  Network.inject e.net s11.Site.ce_node p;
  Engine.run e.engine;
  Alcotest.(check (list string)) "drop traced" ["vrf-no-route"] !drops

(* Property: random multi-VPN deployments never leak across VPNs, and
   every intra-VPN pair delivers. *)
let isolation_property =
  QCheck.Test.make ~name:"random deployments: total isolation, full delivery"
    ~count:15
    QCheck.(pair (int_range 2 4) (int_range 2 4))
    (fun (vpns, sites_per_vpn) ->
       let sc =
         Scenario.build ~pops:6 ~vpns ~sites_per_vpn
           ~seed:(vpns * 100 + sites_per_vpn)
           (Scenario.Mpls_deployment
              { policy = Qos_mapping.Best_effort; use_te = false })
       in
       let net = Scenario.network sc in
       let engine = Scenario.engine sc in
       let ok = ref 0 and leak = ref 0 and expected = ref 0 in
       let sites = Array.to_list (Scenario.sites sc) in
       List.iter
         (fun (s : Site.t) ->
            Network.set_sink net s.Site.ce_node (fun p ->
                if p.Packet.vpn = Some s.Site.vpn then incr ok
                else incr leak))
         sites;
       List.iter
         (fun (a : Site.t) ->
            List.iter
              (fun (b : Site.t) ->
                 if a.Site.vpn = b.Site.vpn && a.Site.id <> b.Site.id then begin
                   incr expected;
                   Network.inject net a.Site.ce_node
                     (Packet.make ~vpn:a.Site.vpn ~now:(Engine.now engine)
                        (Flow.make
                           (Prefix.nth_host a.Site.prefix 1)
                           (Prefix.nth_host b.Site.prefix 1)))
                 end)
              sites)
         sites;
       Engine.run engine;
       !leak = 0 && !ok = !expected)

(* --- Interprovider ---------------------------------------------------------- *)

let deploy_two_carriers () =
  Interprovider.deploy_vpn ~pops_per_provider:4 ~vpn:7
    ~sites_a:[(1, pfx "10.0.0.0/16"); (2, pfx "10.1.0.0/16")]
    ~sites_b:[(1, pfx "10.2.0.0/16"); (3, pfx "10.3.0.0/16")]
    ()

let test_interprovider_cross_carrier_delivery () =
  let ip2, engine, sites_a, sites_b = deploy_two_carriers () in
  let net = Interprovider.network ip2 in
  let a = List.hd sites_a and b = List.hd sites_b in
  let delivered = ref [] in
  Network.set_sink net b.Site.ce_node (fun p -> delivered := p :: !delivered);
  let p =
    Packet.make ~vpn:7 ~now:0.0
      (Flow.make (Site.host a 1) (Site.host b 1))
  in
  Network.inject net a.Site.ce_node p;
  Engine.run engine;
  (match !delivered with
   | [d] -> Alcotest.(check int) "across both carriers" p.Packet.uid d.Packet.uid
   | _ ->
     Alcotest.failf "expected 1 delivery, got %d (drops: %s)"
       (List.length !delivered)
       (String.concat ", "
          (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n)
             (Network.drop_counts net))));
  Alcotest.(check bool) "ebgp exchanged routes" true
    (Interprovider.ebgp_messages ip2 > 0)

let test_interprovider_reverse_direction () =
  let ip2, engine, sites_a, sites_b = deploy_two_carriers () in
  let net = Interprovider.network ip2 in
  let a = List.nth sites_a 1 and b = List.nth sites_b 1 in
  let delivered = ref 0 in
  Network.set_sink net a.Site.ce_node (fun _ -> incr delivered);
  let p =
    Packet.make ~vpn:7 ~now:0.0
      (Flow.make (Site.host b 1) (Site.host a 1))
  in
  Network.inject net b.Site.ce_node p;
  Engine.run engine;
  Alcotest.(check int) "b -> a delivered" 1 !delivered

let test_interprovider_igp_isolation () =
  let ip2, _engine, _sa, _sb = deploy_two_carriers () in
  (* Provider A's IGP must not have learned provider B's loopbacks. *)
  let vpn_a = Interprovider.vpn_a ip2 in
  let bb_b = Interprovider.backbone_b ip2 in
  let a_border, _ = Interprovider.border ip2 in
  let a_fib = Mvpn_routing.Ospf.fib (Mpls_vpn.ospf vpn_a) a_border in
  let b_loopback = Backbone.loopback bb_b ~pop:1 in
  Alcotest.(check (option int)) "no route to the other carrier's core"
    None
    (Fib.next_hop a_fib (Prefix.network b_loopback))

let test_interprovider_unknown_prefix_refused () =
  let ip2, engine, sites_a, _ = deploy_two_carriers () in
  let net = Interprovider.network ip2 in
  let a = List.hd sites_a in
  let p =
    Packet.make ~vpn:7 ~now:0.0
      (Flow.make (Site.host a 1) (ip "172.20.0.1"))
  in
  Network.inject net a.Site.ce_node p;
  Engine.run engine;
  Alcotest.(check bool) "refused at the vrf" true
    (List.mem_assoc "vrf-no-route" (Network.drop_counts net))

let test_interprovider_multicast_stays_home () =
  (* Group replication is intra-provider: A's other sites hear the
     announcement; B's sites do not, and nothing loops. *)
  let ip2, engine, sites_a, sites_b = deploy_two_carriers () in
  let net = Interprovider.network ip2 in
  let copies = Hashtbl.create 8 in
  List.iter
    (fun (s : Site.t) ->
       Network.set_sink net s.Site.ce_node (fun _ ->
           Hashtbl.replace copies s.Site.id
             (1 + Option.value ~default:0 (Hashtbl.find_opt copies s.Site.id))))
    (sites_a @ sites_b);
  let sender = List.hd sites_a in
  Network.inject net sender.Site.ce_node
    (Packet.make ~vpn:7 ~now:0.0
       (Flow.make (Site.host sender 1) (ip "239.7.7.7")));
  Engine.run engine;
  let got (s : Site.t) =
    Option.value ~default:0 (Hashtbl.find_opt copies s.Site.id)
  in
  Alcotest.(check int) "a2 hears it" 1 (got (List.nth sites_a 1));
  List.iter
    (fun s -> Alcotest.(check int) "b silent" 0 (got s))
    sites_b;
  Alcotest.(check int) "sender silent" 0 (got sender)

let test_interprovider_intra_carrier_still_native () =
  (* Sites within one carrier must not detour via the border. *)
  let ip2, engine, sites_a, _ = deploy_two_carriers () in
  let net = Interprovider.network ip2 in
  let a0 = List.nth sites_a 0 and a1 = List.nth sites_a 1 in
  let delivered = ref 0 in
  Network.set_sink net a1.Site.ce_node (fun _ -> incr delivered);
  (* The border link must carry nothing for intra-carrier traffic. *)
  let border_a, border_b = Interprovider.border ip2 in
  let border_link =
    match
      Mvpn_sim.Topology.find_link (Network.topology net) border_a border_b
    with
    | Some l -> l
    | None -> Alcotest.fail "border link missing"
  in
  let p =
    Packet.make ~vpn:7 ~now:0.0
      (Flow.make (Site.host a0 1) (Site.host a1 1))
  in
  Network.inject net a0.Site.ce_node p;
  Engine.run engine;
  Alcotest.(check int) "intra-carrier delivered" 1 !delivered;
  let border_port = Network.port net ~link_id:border_link.Mvpn_sim.Topology.id in
  Alcotest.(check int) "nothing crossed the border" 0
    (Mvpn_qos.Port.counters border_port).Mvpn_qos.Port.offered

(* --- Traffic ---------------------------------------------------------------- *)

let test_traffic_cbr_count () =
  let engine = Engine.create () in
  let count = ref 0 in
  (* 80 kb/s at 1000-byte packets = 10 packets/s for 2 s. *)
  Traffic.cbr engine ~start:0.0 ~stop:2.0 ~rate_bps:80_000.0
    ~packet_bytes:1000 (fun size ->
        Alcotest.(check int) "size" 1000 size;
        incr count);
  Engine.run engine;
  (* First at t=0, then every 0.1 s through t=2.0 inclusive. *)
  Alcotest.(check int) "packet count" 21 !count

let test_traffic_poisson_mean () =
  let engine = Engine.create () in
  let rng = Mvpn_sim.Rng.create 5 in
  let count = ref 0 in
  Traffic.poisson engine rng ~start:0.0 ~stop:100.0 ~rate_pps:50.0
    ~packet_bytes:512 (fun _ -> incr count);
  Engine.run engine;
  let expected = 5000 in
  Alcotest.(check bool) "within 10%" true
    (abs (!count - expected) < expected / 10)

(* A warmed Poisson source fires without allocating: the next delay is
   drawn straight into the source's delay cell and re-armed from it,
   with the same event closure, and the stop test reads the engine's
   clock cell. Both readings are taken inside one run window, after
   5000 firings have settled the calendar queue's bucket width. *)
let test_traffic_poisson_firing_allocates_nothing () =
  let engine = Engine.create () in
  let rng = Mvpn_sim.Rng.create 5 in
  let count = ref 0 and words = Float.Array.make 2 0.0 in
  Traffic.poisson engine rng ~start:0.0 ~stop:400.0 ~rate_pps:50.0
    ~packet_bytes:512 (fun _ ->
        incr count;
        if !count = 5000 then Float.Array.set words 0 (Gc.minor_words ())
        else if !count = 15_000 then
          Float.Array.set words 1 (Gc.minor_words ()));
  Engine.run engine;
  Alcotest.(check bool) "fired past the second reading" true
    (!count > 15_000);
  Alcotest.(check (float 0.0)) "minor words over 10k firings" 0.0
    (Float.Array.get words 1 -. Float.Array.get words 0)

let test_traffic_onoff_duty_cycle () =
  let engine = Engine.create () in
  let rng = Mvpn_sim.Rng.create 9 in
  let count = ref 0 in
  Traffic.onoff engine rng ~start:0.0 ~stop:200.0 ~on_mean:1.0 ~off_mean:1.0
    ~rate_bps:80_000.0 ~packet_bytes:1000 (fun _ -> incr count);
  Engine.run engine;
  (* 50% duty cycle of 10 pps over 200 s ~ 1000 packets. *)
  Alcotest.(check bool) "roughly half duty" true
    (!count > 600 && !count < 1400)

let test_traffic_pareto_bursts () =
  let engine = Engine.create () in
  let rng = Mvpn_sim.Rng.create 13 in
  let bytes = ref 0 in
  Traffic.pareto_bursts engine rng ~start:0.0 ~stop:50.0 ~burst_rate:2.0
    ~mean_burst_bytes:30_000.0 (fun size -> bytes := !bytes + size);
  Engine.run engine;
  (* ~100 bursts of ~30 kB each; heavy tail makes this loose. *)
  Alcotest.(check bool) "volume plausible" true
    (!bytes > 1_000_000 && !bytes < 30_000_000)

let test_traffic_sender_and_sink () =
  let engine, _topo, net, ids =
    let topo = Topology.create () in
    let ids = Topology.line topo 2 ~bandwidth:1e6 ~delay:0.001 in
    let engine = Engine.create () in
    (engine, topo, Network.create engine topo, ids)
  in
  Fib.add (Network.fib net ids.(0)) Prefix.default
    { Fib.next_hop = ids.(1); cost = 1; source = Fib.Static };
  Fib.add (Network.fib net ids.(1)) Prefix.default
    { Fib.next_hop = Fib.local_delivery; cost = 0; source = Fib.Connected };
  let registry = Traffic.registry engine in
  Network.set_sink net ids.(1) (Traffic.sink registry);
  let c = Traffic.collector registry "test" in
  let flow = Flow.make (ip "10.0.0.1") (ip "10.1.0.1") in
  let emit =
    Traffic.sender registry ~net ~src_node:ids.(0) ~flow ~dscp:Dscp.ef
      ~collector:c ()
  in
  Traffic.cbr engine ~start:0.0 ~stop:1.0 ~rate_bps:80_000.0
    ~packet_bytes:1000 emit;
  Engine.run engine;
  let r = Traffic.report registry "test" in
  Alcotest.(check int) "all sent" 11 r.Sla.sent;
  Alcotest.(check int) "all received" 11 r.Sla.received;
  Alcotest.(check bool) "delay includes serialization" true
    (r.Sla.mean_delay > 0.001)

(* --- Scenario ---------------------------------------------------------------- *)

let test_scenario_mpls_qos_protects_voice () =
  let build policy =
    let sc =
      Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:4
        (Scenario.Mpls_deployment { policy; use_te = false })
    in
    let a = Scenario.site sc ~vpn:1 ~idx:0 in
    let b = Scenario.site sc ~vpn:1 ~idx:1 in
    Scenario.add_mixed_workload ~load:1.2 sc ~pairs:[(a, b)] ~duration:20.0;
    Scenario.run sc ~duration:25.0;
    Scenario.class_report sc "voice"
  in
  let be = build Qos_mapping.Best_effort in
  let ds = build (Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched) in
  Alcotest.(check bool) "voice sent under both" true
    (be.Sla.sent > 50 && ds.Sla.sent > 50);
  (* Under overload, DiffServ must beat best effort for EF delay. *)
  Alcotest.(check bool)
    (Printf.sprintf "diffserv delay %.4f < best effort %.4f" ds.Sla.mean_delay
       be.Sla.mean_delay)
    true
    (ds.Sla.mean_delay < be.Sla.mean_delay)

let test_scenario_overlay_deployment_runs () =
  let sc =
    Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:2
      (Scenario.Overlay_deployment
         { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
           cipher = Crypto.Des; copy_tos = true })
  in
  let a = Scenario.site sc ~vpn:1 ~idx:0 in
  let b = Scenario.site sc ~vpn:1 ~idx:1 in
  Scenario.add_mixed_workload ~load:0.5 sc ~pairs:[(a, b)] ~duration:10.0;
  Scenario.run sc ~duration:12.0;
  List.iter
    (fun (label, (r : Sla.report)) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s delivered through the overlay" label)
         true
         (r.Sla.sent > 0 && r.Sla.received > 0))
    (Scenario.class_reports sc);
  (match Scenario.overlay sc with
   | Some o ->
     Alcotest.(check int) "one circuit" 1 (Overlay.vc_count o)
   | None -> Alcotest.fail "overlay expected")

let test_scenario_isolation_under_load () =
  let sc =
    Scenario.build ~pops:6 ~vpns:2 ~sites_per_vpn:2
      (Scenario.Mpls_deployment
         { policy = Qos_mapping.Best_effort; use_te = false })
  in
  let a1 = Scenario.site sc ~vpn:1 ~idx:0 in
  let b1 = Scenario.site sc ~vpn:1 ~idx:1 in
  let a2 = Scenario.site sc ~vpn:2 ~idx:0 in
  let b2 = Scenario.site sc ~vpn:2 ~idx:1 in
  Scenario.add_mixed_workload ~load:0.5 sc
    ~pairs:[(a1, b1); (a2, b2)] ~duration:10.0;
  Scenario.run sc ~duration:15.0;
  (* Every class delivered most traffic; nothing leaked (leaks would
     show as vrf-no-route drops or misdelivery, and sinks check vpn). *)
  List.iter
    (fun (label, r) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s mostly delivered (loss %.3f)" label r.Sla.loss)
         true
         (r.Sla.sent > 0 && r.Sla.loss < 0.2))
    (Scenario.class_reports sc)

(* --- L2vpn (pseudowires) -------------------------------------------------------- *)

let l2_setup () =
  let bb = Backbone.build ~pops:6 ~chords:[] () in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let l2 = L2vpn.deploy ~net ~backbone:bb in
  (bb, engine, net, l2)

let test_l2vpn_pw_end_to_end () =
  let bb, engine, _net, l2 = l2_setup () in
  let pops = Backbone.pops bb in
  let got_b = ref [] and got_a = ref [] in
  let pw =
    match
      L2vpn.create_pw l2
        ~a:{ L2vpn.pe = pops.(0); on_deliver = (fun p -> got_a := p :: !got_a) }
        ~b:{ L2vpn.pe = pops.(3); on_deliver = (fun p -> got_b := p :: !got_b) }
    with
    | Ok id -> id
    | Error e -> Alcotest.fail e
  in
  let payload () =
    Packet.make ~size:500 ~now:(Engine.now engine)
      (Flow.make (ip "192.168.0.1") (ip "192.168.0.2"))
  in
  let p1 = payload () in
  let original_size = p1.Packet.size in
  L2vpn.send l2 ~pw ~from_a:true p1;
  L2vpn.send l2 ~pw ~from_a:true (payload ());
  L2vpn.send l2 ~pw ~from_a:false (payload ());
  Engine.run engine;
  Alcotest.(check int) "a->b frames" 2 (List.length !got_b);
  Alcotest.(check int) "b->a frames" 1 (List.length !got_a);
  Alcotest.(check int) "delivered counter" 3 (L2vpn.delivered l2 ~pw);
  Alcotest.(check int) "no misorder" 0 (L2vpn.misordered l2 ~pw);
  (* Payload is opaque and restored: size and addresses untouched. *)
  let d = List.nth (List.rev !got_b) 0 in
  Alcotest.(check int) "size restored" original_size d.Packet.size;
  Alcotest.(check bool) "no labels left" false (Packet.labelled d)

let test_l2vpn_local_switching () =
  let bb, engine, _net, l2 = l2_setup () in
  let pops = Backbone.pops bb in
  let got = ref 0 in
  let pw =
    match
      L2vpn.create_pw l2
        ~a:{ L2vpn.pe = pops.(1); on_deliver = (fun _ -> ()) }
        ~b:{ L2vpn.pe = pops.(1); on_deliver = (fun _ -> incr got) }
    with
    | Ok id -> id
    | Error e -> Alcotest.fail e
  in
  L2vpn.send l2 ~pw ~from_a:true
    (Packet.make ~size:100 ~now:0.0
       (Flow.make (ip "192.168.0.1") (ip "192.168.0.2")));
  Engine.run engine;
  Alcotest.(check int) "locally switched" 1 !got

(* An L3 VPN and a pseudowire share the same backbone, PEs and label
   space; both must work whichever service is deployed first, and both
   frames are booked in and out of the packet ledger. *)
let check_l2vpn_coexists ~l2_first =
  let bb = Backbone.build ~pops:4 ~chords:[] () in
  let s1 =
    Backbone.attach_site bb ~id:1 ~name:"s1" ~vpn:1
      ~prefix:(pfx "10.0.0.0/16") ~pop:0
  in
  let s2 =
    Backbone.attach_site bb ~id:2 ~name:"s2" ~vpn:1
      ~prefix:(pfx "10.1.0.0/16") ~pop:2
  in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let l2 =
    if l2_first then begin
      let l2 = L2vpn.deploy ~net ~backbone:bb in
      ignore (Mpls_vpn.deploy ~net ~backbone:bb ~sites:[s1; s2] ());
      l2
    end
    else begin
      ignore (Mpls_vpn.deploy ~net ~backbone:bb ~sites:[s1; s2] ());
      L2vpn.deploy ~net ~backbone:bb
    end
  in
  let pops = Backbone.pops bb in
  let l3_got = ref 0 and l2_got = ref 0 in
  Network.set_sink net s2.Site.ce_node (fun _ -> incr l3_got);
  let pw =
    match
      L2vpn.create_pw l2
        ~a:{ L2vpn.pe = pops.(1); on_deliver = (fun _ -> ()) }
        ~b:{ L2vpn.pe = pops.(3); on_deliver = (fun _ -> incr l2_got) }
    with
    | Ok id -> id
    | Error e -> Alcotest.fail e
  in
  Network.inject net s1.Site.ce_node
    (Packet.make ~vpn:1 ~now:0.0
       (Flow.make (Prefix.nth_host s1.Site.prefix 1)
          (Prefix.nth_host s2.Site.prefix 1)));
  L2vpn.send l2 ~pw ~from_a:true
    (Packet.make ~size:400 ~now:0.0
       (Flow.make (ip "192.168.9.1") (ip "192.168.9.2")));
  Engine.run engine;
  Alcotest.(check int) "l3 delivery" 1 !l3_got;
  Alcotest.(check int) "l2 delivery" 1 !l2_got;
  Alcotest.(check int) "no drops" 0 (Network.drops net);
  let f = Network.flow_totals net in
  Alcotest.(check int) "both booked in" 2 f.Network.injected;
  Alcotest.(check int) "both booked out" 2 f.Network.delivered;
  Alcotest.(check int) "none live" 0 f.Network.live

let test_l2vpn_coexists_with_l3vpn () = check_l2vpn_coexists ~l2_first:false

let test_l2vpn_deployed_before_l3vpn () = check_l2vpn_coexists ~l2_first:true

let test_l2vpn_frame_relay_interworking () =
  (* A frame relay PVC carried across the MPLS backbone: the frame's
     DLCI and DE bit survive untouched. *)
  let bb, engine, _net, l2 = l2_setup () in
  let pops = Backbone.pops bb in
  let module Frame = Mvpn_frelay.Frame in
  let carried : (int, Frame.t) Hashtbl.t = Hashtbl.create 8 in
  let received = ref [] in
  let pw =
    match
      L2vpn.create_pw l2
        ~a:{ L2vpn.pe = pops.(0); on_deliver = (fun _ -> ()) }
        ~b:
          { L2vpn.pe = pops.(2);
            on_deliver =
              (fun p ->
                 match Hashtbl.find_opt carried p.Packet.uid with
                 | Some frame -> received := frame :: !received
                 | None -> Alcotest.fail "unknown payload") }
    with
    | Ok id -> id
    | Error e -> Alcotest.fail e
  in
  let frame = Frame.make ~dlci:100 ~payload:800 in
  frame.Frame.de <- true;
  let p =
    Packet.make ~size:(Frame.wire_bytes frame) ~now:0.0
      (Flow.make (ip "192.168.0.1") (ip "192.168.0.2"))
  in
  Hashtbl.replace carried p.Packet.uid frame;
  L2vpn.send l2 ~pw ~from_a:true p;
  Engine.run engine;
  (match !received with
   | [f] ->
     Alcotest.(check int) "dlci preserved" 100 f.Frame.dlci;
     Alcotest.(check bool) "de bit preserved" true f.Frame.de
   | _ -> Alcotest.fail "frame did not cross the backbone")

(* --- Accounting --------------------------------------------------------------- *)

let test_accounting_usage_and_invoice () =
  let acct = Accounting.create () in
  let record vpn dscp size =
    Accounting.observe acct
      (Packet.make ~vpn ~dscp ~size ~now:0.0
         (Flow.make (ip "10.0.0.1") (ip "10.1.0.1")))
  in
  (* VPN 1: 2 EF packets and 1 bulk; VPN 2: 1 AF-hi. *)
  record 1 Dscp.ef 200;
  record 1 Dscp.ef 200;
  record 1 Dscp.best_effort 1500;
  record 2 (Dscp.af 3 1) 512;
  let u = Accounting.usage acct in
  Alcotest.(check int) "three usage cells" 3 (List.length u);
  let ef1 = List.hd u in
  Alcotest.(check int) "vpn" 1 ef1.Accounting.vpn;
  Alcotest.(check int) "band" 0 ef1.Accounting.band;
  Alcotest.(check int) "packets" 2 ef1.Accounting.packets;
  Alcotest.(check int) "bytes" 400 ef1.Accounting.bytes;
  let lines1, total1 = Accounting.invoice acct ~vpn:1 in
  Alcotest.(check int) "vpn1 lines" 2 (List.length lines1);
  (* 400 B of EF at 8/GB + 1500 B of BE at 0.5/GB. *)
  let expected = (400.0 /. 1e9 *. 8.0) +. (1500.0 /. 1e9 *. 0.5) in
  Alcotest.(check (float 1e-12)) "vpn1 total" expected total1;
  let _, total2 = Accounting.invoice acct ~vpn:2 in
  Alcotest.(check (float 1e-12)) "vpn2 total" (512.0 /. 1e9 *. 4.0) total2;
  let _, total3 = Accounting.invoice acct ~vpn:3 in
  Alcotest.(check (float 1e-12)) "unknown vpn bills zero" 0.0 total3

let test_accounting_wrapped_sink () =
  let acct = Accounting.create () in
  let inner_hits = ref 0 in
  let sink = Accounting.sink acct (fun _ -> incr inner_hits) in
  sink
    (Packet.make ~vpn:5 ~size:100 ~now:0.0
       (Flow.make (ip "10.0.0.1") (ip "10.1.0.1")));
  Alcotest.(check int) "inner sink still runs" 1 !inner_hits;
  Alcotest.(check int) "accounted" 1 (List.length (Accounting.usage acct))

(* --- Planning ------------------------------------------------------------------ *)

let planning_topo () =
  (* Diamond: 0-1-3 short, 0-2-3 long, all 10 Mb/s. *)
  let t = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node t) in
  ignore (Topology.connect t n.(0) n.(1) ~bandwidth:10e6 ~delay:0.001);
  ignore (Topology.connect t n.(1) n.(3) ~bandwidth:10e6 ~delay:0.001);
  ignore (Topology.connect ~cost:2 t n.(0) n.(2) ~bandwidth:10e6 ~delay:0.001);
  ignore (Topology.connect ~cost:2 t n.(2) n.(3) ~bandwidth:10e6 ~delay:0.001);
  (t, n)

let test_planning_spf_overload () =
  let t, n = planning_topo () in
  let demands =
    List.init 3 (fun _ -> { Planning.src = n.(0); dst = n.(3); bandwidth = 6e6 })
  in
  let p = Planning.route_spf t demands in
  Alcotest.(check int) "all routed" 3 (Planning.routed p);
  (* All 18 Mb/s pile on the 10 Mb/s short path. *)
  Alcotest.(check (float 1e-9)) "max util 180%" 1.8 (Planning.max_utilization p);
  Alcotest.(check int) "two hot links" 2
    (List.length (Planning.hot_links p));
  match Planning.upgrades_needed p with
  | (_, excess) :: _ ->
    Alcotest.(check (float 1e-9)) "upgrade size" 8e6 excess
  | [] -> Alcotest.fail "expected upgrades"

let test_planning_capacity_aware_spreads () =
  let t, n = planning_topo () in
  let demands =
    List.init 3 (fun _ -> { Planning.src = n.(0); dst = n.(3); bandwidth = 6e6 })
  in
  let p = Planning.route_capacity_aware t demands in
  (* First takes the short path; second must detour; third fits nowhere. *)
  Alcotest.(check int) "routed" 2 (Planning.routed p);
  Alcotest.(check int) "unrouted" 1 (Planning.unrouted p);
  Alcotest.(check bool) "nothing overloaded" true
    (Planning.max_utilization p <= 1.0);
  Alcotest.(check int) "no upgrades" 0
    (List.length (Planning.upgrades_needed p))

let test_planning_ecmp_splits_ties () =
  (* Diamond with equal costs both ways: ECMP halves the demand. *)
  let t = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node t) in
  ignore (Topology.connect t n.(0) n.(1) ~bandwidth:10e6 ~delay:0.001);
  ignore (Topology.connect t n.(1) n.(3) ~bandwidth:10e6 ~delay:0.001);
  ignore (Topology.connect t n.(0) n.(2) ~bandwidth:10e6 ~delay:0.001);
  ignore (Topology.connect t n.(2) n.(3) ~bandwidth:10e6 ~delay:0.001);
  let p =
    Planning.route_ecmp t
      [{ Planning.src = n.(0); dst = n.(3); bandwidth = 8e6 }]
  in
  Alcotest.(check int) "routed" 1 (Planning.routed p);
  (match Topology.find_link t n.(0) n.(1) with
   | Some l ->
     Alcotest.(check (float 1e-6)) "half on the top path" 4e6
       (Planning.link_load p l)
   | None -> Alcotest.fail "link missing");
  (match Topology.find_link t n.(0) n.(2) with
   | Some l ->
     Alcotest.(check (float 1e-6)) "half on the bottom path" 4e6
       (Planning.link_load p l)
   | None -> Alcotest.fail "link missing");
  (* Against the single-path SPF placement, max utilization halves. *)
  let spf =
    Planning.route_spf t
      [{ Planning.src = n.(0); dst = n.(3); bandwidth = 8e6 }]
  in
  Alcotest.(check bool) "ecmp flattens the peak" true
    (Planning.max_utilization p < Planning.max_utilization spf)

let test_planning_ecmp_conserves_flow () =
  (* On an asymmetric diamond (one side longer), ECMP degenerates to
     the single shortest path and carries the full demand. *)
  let t, n = planning_topo () in
  let p =
    Planning.route_ecmp t
      [{ Planning.src = n.(0); dst = n.(3); bandwidth = 6e6 }]
  in
  match Topology.find_link t n.(0) n.(1), Topology.find_link t n.(0) n.(2) with
  | Some short, Some long ->
    Alcotest.(check (float 1e-6)) "all on the short path" 6e6
      (Planning.link_load p short);
    Alcotest.(check (float 1e-6)) "nothing on the long path" 0.0
      (Planning.link_load p long)
  | _ -> Alcotest.fail "links missing"

let test_planning_unreachable_demand () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  let p =
    Planning.route_spf t [{ Planning.src = a; dst = b; bandwidth = 1e6 }]
  in
  Alcotest.(check int) "unrouted" 1 (Planning.unrouted p)

(* The demo pairing never crosses VPNs; with an even site count it is
   the plain consecutive pairing over the whole site array (0→1, 2→3,
   …, last pair first) that the golden captures were taken with. *)
let default_pairs_property =
  QCheck.Test.make ~name:"default pairs stay inside a VPN" ~count:30
    QCheck.(pair (int_range 0 3) (int_range 0 7))
    (fun (vpns, sites_per_vpn) ->
       let sc =
         Scenario.build ~pops:4 ~vpns ~sites_per_vpn ~seed:11
           (Scenario.Mpls_deployment
              { policy = Qos_mapping.Best_effort; use_te = false })
       in
       let pairs = Scenario.default_pairs sc in
       let sites = Scenario.sites sc in
       let consecutive = ref [] in
       Array.iteri
         (fun i a ->
            if i mod 2 = 0 && i + 1 < Array.length sites then
              consecutive := (a, sites.(i + 1)) :: !consecutive)
         sites;
       List.for_all
         (fun ((a : Site.t), (b : Site.t)) -> a.Site.vpn = b.Site.vpn)
         pairs
       && List.length pairs = vpns * (sites_per_vpn / 2)
       && (sites_per_vpn mod 2 = 1
           || List.for_all2 (fun (a, b) (c, d) -> a == c && b == d)
                pairs !consecutive))

(* Failure churn: fail any single ring link of a 2-connected backbone,
   reconverge, and every intra-VPN pair must still deliver. *)
let failure_churn_property =
  QCheck.Test.make ~name:"any single core failure survives reconvergence"
    ~count:12 QCheck.(int_range 0 5)
    (fun failed_ring_link ->
       let bb = Backbone.build ~pops:6 ~chords:[(0, 3)] () in
       let sites =
         List.init 4 (fun i ->
             Backbone.attach_site bb ~id:i ~name:(Printf.sprintf "s%d" i)
               ~vpn:1
               ~prefix:(Prefix.make (Ipv4.of_octets 10 i 0 0) 16)
               ~pop:(i + 1))
       in
       let engine = Engine.create () in
       let net = Network.create engine (Backbone.topology bb) in
       let vpn = Mpls_vpn.deploy ~net ~backbone:bb ~sites () in
       let delivered = ref 0 in
       List.iter
         (fun (s : Site.t) ->
            Network.set_sink net s.Site.ce_node (fun _ -> incr delivered))
         sites;
       (* Fail one ring link, reconverge, probe all ordered pairs. *)
       let pops = Backbone.pops bb in
       Topology.set_duplex_state (Backbone.topology bb)
         pops.(failed_ring_link)
         pops.((failed_ring_link + 1) mod 6)
         false;
       ignore (Mpls_vpn.reconverge vpn);
       let expected = ref 0 in
       List.iter
         (fun (a : Site.t) ->
            List.iter
              (fun (b : Site.t) ->
                 if a.Site.id <> b.Site.id then begin
                   incr expected;
                   Network.inject net a.Site.ce_node
                     (Packet.make ~vpn:1 ~now:(Engine.now engine)
                        (Flow.make
                           (Prefix.nth_host a.Site.prefix 1)
                           (Prefix.nth_host b.Site.prefix 1)))
                 end)
              sites)
         sites;
       Engine.run engine;
       !delivered = !expected)

(* --- Determinism ------------------------------------------------------------ *)

let test_simulation_determinism () =
  (* Two identically seeded runs must agree bit for bit — the property
     every experiment's reproducibility rests on. *)
  let run () =
    let sc =
      Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:4 ~seed:99
        (Scenario.Mpls_deployment
           { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
             use_te = false })
    in
    let pairs =
      [ (Scenario.site sc ~vpn:1 ~idx:0, Scenario.site sc ~vpn:1 ~idx:1) ]
    in
    Scenario.add_mixed_workload ~load:1.0 sc ~pairs ~duration:10.0;
    Scenario.run sc ~duration:12.0;
    List.map
      (fun (label, (r : Sla.report)) ->
         (label, r.Sla.sent, r.Sla.received, r.Sla.mean_delay,
          r.Sla.p99_delay))
      (Scenario.class_reports sc)
  in
  Packet.reset_uid_counter ();
  let first = run () in
  Packet.reset_uid_counter ();
  let second = run () in
  Alcotest.(check int) "same class count" (List.length first)
    (List.length second);
  List.iter2
    (fun (l1, s1, r1, m1, p1) (l2, s2, r2, m2, p2) ->
       Alcotest.(check string) "label" l1 l2;
       Alcotest.(check int) "sent" s1 s2;
       Alcotest.(check int) "received" r1 r2;
       Alcotest.(check (float 0.0)) "mean delay bitwise" m1 m2;
       Alcotest.(check (float 0.0)) "p99 bitwise" p1 p2)
    first second

(* --- SLA conformance (spans, SLOs, events) ------------------------------ *)

module T = Mvpn_telemetry

(* Every conformance test runs against the process-global registry. *)
let wrap_telemetry f () =
  T.Registry.reset ();
  T.Control.disable ();
  Fun.protect ~finally:(fun () ->
      T.Registry.reset ();
      T.Control.disable ())
    f

let test_accounting_gauges_match_usage () =
  let acct = Accounting.create () in
  let record vpn dscp size =
    Accounting.observe acct
      (Packet.make ~vpn ~dscp ~size ~now:0.0
         (Flow.make (ip "10.0.0.1") (ip "10.1.0.1")))
  in
  T.Control.with_enabled (fun () ->
      record 1 Dscp.ef 200;
      record 1 Dscp.ef 200;
      record 1 Dscp.best_effort 1500;
      record 2 (Dscp.af 3 1) 512);
  (* The registry view and the usage view must agree cell by cell. *)
  let usage = Accounting.usage acct in
  Alcotest.(check int) "three cells" 3 (List.length usage);
  List.iter
    (fun (u : Accounting.usage) ->
       let gauge suffix =
         T.Gauge.value
           (T.Registry.gauge
              (Printf.sprintf "acct.vpn%d.band%d.%s" u.Accounting.vpn
                 u.Accounting.band suffix))
       in
       Alcotest.(check (float 1e-9))
         (Printf.sprintf "vpn%d band%d packets" u.Accounting.vpn
            u.Accounting.band)
         (float_of_int u.Accounting.packets)
         (gauge "packets");
       Alcotest.(check (float 1e-9))
         (Printf.sprintf "vpn%d band%d bytes" u.Accounting.vpn
            u.Accounting.band)
         (float_of_int u.Accounting.bytes)
         (gauge "bytes"))
    usage

let test_span_attributes_delivery () =
  let e = build_e2e () in
  let s11 = site_by_id e 11 and s12 = site_by_id e 12 in
  let delivered_at = ref nan in
  Network.set_sink e.net s12.Site.ce_node (fun _ ->
      delivered_at := Engine.now e.engine);
  let p =
    Packet.make ~vpn:1 ~dscp:Dscp.ef ~now:(Engine.now e.engine)
      (Flow.make
         (Prefix.nth_host s11.Site.prefix 1)
         (Prefix.nth_host s12.Site.prefix 1))
  in
  T.Control.with_enabled (fun () ->
      Network.inject e.net s11.Site.ce_node p;
      Engine.run e.engine);
  Alcotest.(check bool) "delivered" true (Float.is_finite !delivered_at);
  let events =
    T.Hop_trace.trace (T.Registry.trace ()) ~uid:p.Packet.uid
  in
  match T.Span.of_trace ~vpn:1 ~band:0 events with
  | None -> Alcotest.fail "span expected"
  | Some s ->
    Alcotest.(check string) "delivered outcome" "delivered"
      (T.Span.outcome_name s.T.Span.outcome);
    (* CE -> PE -> P -> PE -> CE: well more than three stages. *)
    Alcotest.(check bool)
      (Printf.sprintf "spans %d segments" (List.length s.T.Span.segments))
      true
      (List.length s.T.Span.segments >= 3);
    (* Contiguous segments attribute the packet's whole life: their
       dwells must sum to the independently-measured end-to-end delay
       (sink time minus creation time) within a microsecond. *)
    let e2e = !delivered_at -. Packet.created_at p in
    let dwell_sum =
      List.fold_left
        (fun a (g : T.Span.segment) -> a +. g.T.Span.dwell)
        0.0 s.T.Span.segments
    in
    Alcotest.(check bool)
      (Printf.sprintf "dwells %.9f vs e2e %.9f" dwell_sum e2e)
      true
      (Float.abs (dwell_sum -. e2e) < 1e-6);
    Alcotest.(check bool) "transmission time attributed" true
      (T.Span.dwell_of_kind s T.Span.Transmission > 0.0)

let test_slo_sees_failure_and_repair () =
  let bb = Backbone.build ~pops:6 ~chords:[] () in
  let a =
    Backbone.attach_site bb ~id:1 ~name:"a" ~vpn:1
      ~prefix:(pfx "10.0.0.0/16") ~pop:0
  in
  let b =
    Backbone.attach_site bb ~id:2 ~name:"b" ~vpn:1
      ~prefix:(pfx "10.1.0.0/16") ~pop:2
  in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let vpn = Mpls_vpn.deploy ~net ~backbone:bb ~sites:[a; b] () in
  let slo = T.Slo.create () in
  T.Slo.declare slo ~vpn:1 ~band:0 (Qos_mapping.default_objective 0);
  Network.set_slo net (Some slo);
  let registry = Traffic.registry engine in
  Network.set_sink net b.Site.ce_node (Traffic.sink registry);
  let emit =
    Traffic.sender registry ~net ~src_node:a.Site.ce_node
      ~flow:(Flow.make ~proto:Flow.Udp ~dst_port:5060 (Site.host a 1)
               (Site.host b 1))
      ~dscp:Dscp.ef ~vpn:1
      ~collector:(Traffic.collector registry "voice")
      ()
  in
  Traffic.cbr engine ~start:0.0 ~stop:30.0 ~rate_bps:80_000.0
    ~packet_bytes:200 emit;
  let pops = Backbone.pops bb in
  Engine.schedule_at engine ~time:5.0 (fun () ->
      Topology.set_duplex_state (Backbone.topology bb) pops.(0) pops.(1)
        false);
  Engine.schedule_at engine ~time:8.0 (fun () ->
      Topology.set_duplex_state (Backbone.topology bb) pops.(0) pops.(1)
        true;
      ignore (Mpls_vpn.reconverge vpn));
  T.Control.with_enabled (fun () ->
      Engine.run ~until:32.0 engine;
      T.Slo.advance slo ~time:(Engine.now engine));
  let events = T.Registry.events () in
  (* The outage must show up as at least one violation with a matching
     recovery on the same (vpn, band, dimension) after the repair. *)
  let violated = Hashtbl.create 8 and matched = ref 0 in
  T.Event_log.fold
    (fun () (entry : T.Event_log.entry) ->
       match entry.T.Event_log.event with
       | T.Event_log.Slo_violation { vpn; band; dimension; _ } ->
         Hashtbl.replace violated (vpn, band, dimension) ()
       | T.Event_log.Slo_recovered { vpn; band; dimension; _ } ->
         if Hashtbl.mem violated (vpn, band, dimension) then incr matched
       | _ -> ())
    events ();
  Alcotest.(check bool) "a violation fired" true
    (T.Event_log.count_kind events "slo_violation" >= 1);
  Alcotest.(check bool) "a matching recovery followed" true (!matched >= 1);
  (* Link events bracketed the outage. *)
  Alcotest.(check int) "link_down logged" 1
    (T.Event_log.count_kind events "link_down");
  Alcotest.(check int) "link_up logged" 1
    (T.Event_log.count_kind events "link_up")

(* A service's discard takes the same terminal path as a forwarding
   drop: the tracer names the packet and the node, the hop ring ends
   the packet's trace with the drop, the packet is fated and an
   attached SLO engine charges the drop to its (vpn, band). [drive]
   runs with telemetry on and must end in exactly one [reason] drop of
   [p] at [node]. *)
let check_attributed_drop net ~node ~reason (p : Packet.t) drive =
  let vpn = Option.value ~default:0 p.Packet.vpn in
  let band = Qos_mapping.band_of_dscp p.Packet.inner.Packet.dscp in
  let slo = T.Slo.create () in
  T.Slo.declare slo ~vpn ~band (Qos_mapping.default_objective band);
  Network.set_slo net (Some slo);
  let drops = ref [] in
  Network.set_tracer net
    (Some
       (fun ev ->
          if ev.Network.trace_action = Network.Trace_drop reason then
            drops := ev :: !drops));
  T.Control.with_enabled drive;
  (match !drops with
   | [ ev ] ->
     Alcotest.(check int) "tracer sees the packet" p.Packet.uid
       ev.Network.trace_uid;
     Alcotest.(check int) "tracer sees the node" node ev.Network.trace_node
   | evs -> Alcotest.failf "%d %s trace events" (List.length evs) reason);
  (match List.rev (T.Hop_trace.trace (T.Registry.trace ()) ~uid:p.Packet.uid)
   with
   | last :: _ ->
     Alcotest.(check string) "drop hop" ("drop:" ^ reason)
       last.T.Hop_trace.label;
     Alcotest.(check int) "drop hop node" node last.T.Hop_trace.node
   | [] -> Alcotest.fail "no hops recorded");
  Alcotest.(check bool) "packet fated" true p.Packet.fated;
  match T.Slo.reports slo with
  | [ r ] -> Alcotest.(check int) "slo charged" 1 r.T.Slo.drops
  | rs -> Alcotest.failf "%d slo reports" (List.length rs)

let test_overlay_ike_pending_attributed () =
  let bb = Backbone.build ~pops:4 ~chords:[] () in
  let s1 =
    Backbone.attach_site bb ~id:1 ~name:"s1" ~vpn:1
      ~prefix:(pfx "10.0.0.0/16") ~pop:0
  in
  let s2 =
    Backbone.attach_site bb ~id:2 ~name:"s2" ~vpn:1
      ~prefix:(pfx "10.1.0.0/16") ~pop:2
  in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let ike = Mvpn_ipsec.Ike.default_params ~rtt:0.1 in
  ignore (Overlay.deploy ~ike ~net ~sites:[s1; s2] ());
  let p =
    Packet.make ~vpn:1 ~dscp:Dscp.ef ~now:0.0
      (Flow.make (Prefix.nth_host s1.Site.prefix 1)
         (Prefix.nth_host s2.Site.prefix 1))
  in
  check_attributed_drop net ~node:s1.Site.ce_node ~reason:"ike-pending" p
    (fun () ->
       Network.inject net s1.Site.ce_node p;
       Engine.run engine);
  Alcotest.(check int) "ledger retired it" 0
    (Network.flow_totals net).Network.live

let test_l2vpn_pw_unreachable_attributed () =
  let bb = Backbone.build ~pops:3 ~chords:[] () in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let l2 = L2vpn.deploy ~net ~backbone:bb in
  let pops = Backbone.pops bb in
  let pw =
    match
      L2vpn.create_pw l2
        ~a:{ L2vpn.pe = pops.(0); on_deliver = ignore }
        ~b:{ L2vpn.pe = pops.(1); on_deliver = ignore }
    with
    | Ok id -> id
    | Error e -> Alcotest.fail e
  in
  (* Cut pops.(0) off: no LSP and no IGP path toward the far PE. *)
  let topo = Backbone.topology bb in
  Topology.set_duplex_state topo pops.(0) pops.(1) false;
  Topology.set_duplex_state topo pops.(0) pops.(2) false;
  let p =
    Packet.make ~vpn:3 ~dscp:(Dscp.af 3 1) ~size:400 ~now:0.0
      (Flow.make (ip "192.168.0.1") (ip "192.168.0.2"))
  in
  check_attributed_drop net ~node:pops.(0) ~reason:"pw-unreachable" p
    (fun () ->
       L2vpn.send l2 ~pw ~from_a:true p;
       Engine.run engine);
  Alcotest.(check int) "ledger retired it" 0
    (Network.flow_totals net).Network.live

(* A pseudowire delivery takes the network's delivery path: an
   attached SLO engine and the fate hook each see it once, with its
   end-to-end latency. *)
let test_l2vpn_pw_delivery_observed () =
  let bb, engine, net, l2 = l2_setup () in
  let pops = Backbone.pops bb in
  let got = ref 0 in
  let pw =
    match
      L2vpn.create_pw l2
        ~a:{ L2vpn.pe = pops.(0); on_deliver = ignore }
        ~b:{ L2vpn.pe = pops.(3); on_deliver = (fun _ -> incr got) }
    with
    | Ok id -> id
    | Error e -> Alcotest.fail e
  in
  let band = Qos_mapping.band_of_dscp Dscp.ef in
  let slo = T.Slo.create () in
  T.Slo.declare slo ~vpn:3 ~band (Qos_mapping.default_objective band);
  Network.set_slo net (Some slo);
  let fates = ref [] in
  Network.set_fate_hook net
    (Some
       (fun ~time:_ ~vpn ~band ~dropped ~latency ->
          fates := (vpn, band, dropped, latency > 0.0) :: !fates));
  T.Control.with_enabled (fun () ->
      L2vpn.send l2 ~pw ~from_a:true
        (Packet.make ~vpn:3 ~dscp:Dscp.ef ~size:400 ~now:0.0
           (Flow.make (ip "192.168.0.1") (ip "192.168.0.2")));
      Engine.run engine);
  Alcotest.(check int) "frame arrived" 1 !got;
  Alcotest.(check bool) "one delivered fate, with latency" true
    (!fates = [ (3, band, false, true) ]);
  (match T.Slo.reports slo with
   | [ r ] ->
     Alcotest.(check int) "slo saw the delivery" 1 r.T.Slo.total;
     Alcotest.(check int) "and no drop" 0 r.T.Slo.drops
   | rs -> Alcotest.failf "%d slo reports" (List.length rs));
  let f = Network.flow_totals net in
  Alcotest.(check int) "booked in" 1 f.Network.injected;
  Alcotest.(check int) "booked out" 1 f.Network.delivered;
  Alcotest.(check int) "none live" 0 f.Network.live

(* Bounded residency: a million-event run with every observability
   channel armed — spans, hop trace, SLO windows and the timeline
   sampler's decimating rings — must leave the live heap bounded by the
   ring capacities, not the event count. An O(events) buffer anywhere
   in the telemetry path (the pre-ring list-backed series had
   exactly that shape) blows the margin by an order of magnitude. *)
let test_bounded_residency () =
  T.Control.enable ();
  let sc =
    Scenario.build ~pops:16 ~vpns:4 ~sites_per_vpn:8 ~seed:11
      (Scenario.Mpls_deployment
         { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
           use_te = false })
  in
  ignore (Scenario.attach_slo sc);
  Network.set_span_sampler (Scenario.network sc) (Some (T.Span.sampler ()));
  let _sampler = Sampler.start ~interval:1.0 ~until:45.0 sc in
  Scenario.add_mixed_workload ~load:0.9 sc ~pairs:(Scenario.default_pairs sc)
    ~duration:40.0;
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  Scenario.run sc ~duration:45.0;
  let events = T.Registry.counter_value "sim.events" in
  Alcotest.(check bool)
    (Printf.sprintf "at least a million events (%d)" events)
    true
    (events >= 1_000_000);
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let delta = live1 - live0 in
  Alcotest.(check bool)
    (Printf.sprintf "live-heap growth bounded (%d words for %d events)"
       delta events)
    true
    (delta < 2_000_000)

(* Misconfigured observability must fail at config time, not silently
   schedule a tick at t = nan that never fires (nan <= 0.0 is false, so
   the old guard let it through). *)
let test_sampler_interval_validation () =
  let sc =
    Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:2 ~seed:1
      (Scenario.Mpls_deployment
         { policy = Qos_mapping.Best_effort; use_te = false })
  in
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (name, bad) ->
       expect_invalid name (fun () ->
           ignore (Sampler.start ~interval:bad sc)))
    [ ("nan interval", Float.nan); ("zero interval", 0.0);
      ("negative interval", -0.5); ("infinite interval", infinity) ];
  expect_invalid "nan until" (fun () ->
      ignore (Sampler.start ~interval:1.0 ~until:Float.nan sc));
  expect_invalid "negative until" (fun () ->
      ignore (Sampler.start ~interval:1.0 ~until:(-3.0) sc));
  (* the boundary cases that must keep working *)
  ignore (Sampler.start ~interval:0.25 ~until:0.0 sc)

(* Timeline burn rate: bad fraction over the error budget, 0 where a
   sample saw no traffic or the target leaves no budget; good/bad pair
   by index and the shorter series wins. *)
let test_sampler_burn () =
  let good = [| (1.0, 90.0); (2.0, 0.0); (3.0, 5.0) |]
  and bad = [| (1.0, 10.0); (2.0, 0.0); (3.0, 5.0); (4.0, 1.0) |] in
  let burn target = Sampler.burn ~target ~good ~bad in
  let samples = Alcotest.(array (pair (float 1e-9) (float 1e-9))) in
  Alcotest.check samples "budget 1%"
    [| (1.0, 10.0); (2.0, 0.0); (3.0, 50.0) |]
    (burn 0.99);
  Alcotest.check samples "zero budget"
    [| (1.0, 0.0); (2.0, 0.0); (3.0, 0.0) |]
    (burn 1.0)

let test_diurnal_workload_validation () =
  let sc =
    Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:2 ~seed:1
      (Scenario.Mpls_deployment
         { policy = Qos_mapping.Best_effort; use_te = false })
  in
  let pairs = Scenario.default_pairs sc in
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "zero segments" (fun () ->
      Scenario.add_diurnal_workload ~segments:0 sc ~pairs ~duration:10.0);
  expect_invalid "nan duration" (fun () ->
      Scenario.add_diurnal_workload sc ~pairs ~duration:Float.nan);
  expect_invalid "zero duration" (fun () ->
      Scenario.add_diurnal_workload sc ~pairs ~duration:0.0)

(* The diurnal envelope really modulates offered load: the off-peak
   half of the day must carry measurably less traffic than the peak
   half. *)
let test_diurnal_workload_modulates () =
  T.Control.enable ();
  Fun.protect ~finally:T.Control.disable @@ fun () ->
  T.Registry.reset ();
  let sc =
    Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:2 ~seed:7
      (Scenario.Mpls_deployment
         { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
           use_te = false })
  in
  let sampler = Sampler.start ~interval:1.0 ~until:41.0 sc in
  ignore sampler;
  Scenario.add_diurnal_workload ~peak_load:0.9 ~segments:4 sc
    ~pairs:(Scenario.default_pairs sc) ~duration:40.0;
  Scenario.run sc ~duration:45.0;
  (* The raised cosine peaks mid-run (segments 1-2) and bottoms out at
     the edges (segments 0 and 3): total sampled link utilization in
     the peak half must clearly outweigh the off-peak half. *)
  let sum lo hi =
    List.fold_left
      (fun acc name ->
         if String.length name > 8 && String.sub name 0 8 = "ts.link." then
           match T.Registry.find_series name with
           | Some s ->
             Array.fold_left
               (fun acc (t, v) ->
                  if t >= lo && t < hi then acc +. v else acc)
               acc (T.Timeseries.samples s)
           | None -> acc
         else acc)
      0.0
      (T.Registry.names ())
  in
  let edges = sum 0.0 10.0 +. sum 30.0 40.0 in
  let core = sum 10.0 30.0 in
  Alcotest.(check bool)
    (Printf.sprintf "peak half outpaces off-peak (%.2f vs %.2f)" core edges)
    true
    (core > edges *. 1.5)

let () =
  Alcotest.run "core"
    [ ("membership",
       [ Alcotest.test_case "isolation" `Quick test_membership_isolation;
         Alcotest.test_case "join/leave" `Quick test_membership_join_leave;
         Alcotest.test_case "mechanism costs" `Quick
           test_membership_mechanism_costs;
         QCheck_alcotest.to_alcotest membership_model_property ]);
      ("vrf",
       [ Alcotest.test_case "overlapping isolation" `Quick
           test_vrf_overlapping_isolation ]);
      ("qos-mapping",
       [ Alcotest.test_case "bands" `Quick test_qos_bands;
         Alcotest.test_case "all 64 dscps in bands 0..3" `Quick
           test_qos_bands_total;
         Alcotest.test_case "exp preferred" `Quick
           test_qos_band_of_packet_prefers_exp;
         Alcotest.test_case "mark exp" `Quick test_qos_mark_exp;
         Alcotest.test_case "encrypted lands in BE" `Quick
           test_qos_encrypted_tunnel_lands_in_be ]);
      ("network",
       [ Alcotest.test_case "ip forwarding" `Quick
           test_network_ip_forwarding;
         Alcotest.test_case "no route" `Quick test_network_no_route_drop;
         Alcotest.test_case "ttl" `Quick test_network_ttl_drop;
         Alcotest.test_case "interceptor" `Quick
           test_network_interceptor_consumes;
         Alcotest.test_case "label forwarding" `Quick
           test_network_label_forwarding;
         Alcotest.test_case "refresh_igp matches clear and refill" `Quick
           test_network_refresh_igp_matches_clear_and_refill ]);
      ("backbone",
       [ Alcotest.test_case "shape" `Quick test_backbone_shape ]);
      ("mpls-vpn",
       [ Alcotest.test_case "end to end" `Quick
           test_mvpn_end_to_end_delivery;
         Alcotest.test_case "isolation overlapping prefixes" `Quick
           test_mvpn_isolation_with_overlapping_prefixes;
         Alcotest.test_case "no cross-vpn route" `Quick
           test_mvpn_no_cross_vpn_route;
         Alcotest.test_case "hairpin same pe" `Quick
           test_mvpn_hairpin_same_pe;
         Alcotest.test_case "uses label switching" `Quick
           test_mvpn_uses_label_switching;
         Alcotest.test_case "linear growth" `Quick
           test_mvpn_metrics_linear_growth;
         Alcotest.test_case "remove site" `Quick test_mvpn_remove_site;
         Alcotest.test_case "reconverge after failure" `Quick
           test_mvpn_reconverge_after_failure;
         Alcotest.test_case "te tunnels" `Quick test_mvpn_te_tunnels;
         Alcotest.test_case "dscp to exp" `Quick
           test_mvpn_dscp_to_exp_mapping;
         Alcotest.test_case "multicast reaches group" `Quick
           test_mvpn_multicast_reaches_group;
         Alcotest.test_case "multicast keeps marking" `Quick
           test_mvpn_multicast_keeps_marking ]);
      ("overlay",
       [ Alcotest.test_case "end to end" `Quick test_overlay_end_to_end;
         Alcotest.test_case "tunnel counts" `Quick
           test_overlay_tunnel_counts;
         Alcotest.test_case "replay dropped" `Quick
           test_overlay_replay_dropped;
         Alcotest.test_case "crypto delays" `Quick
           test_overlay_crypto_delays_delivery;
         Alcotest.test_case "ike gates traffic" `Quick
           test_overlay_ike_gates_traffic;
         Alcotest.test_case "no cross-vpn tunnel" `Quick
           test_overlay_cross_vpn_has_no_tunnel ]);
      ("tracing",
       [ Alcotest.test_case "sequence" `Quick test_trace_sequence;
         Alcotest.test_case "drop reported" `Quick test_trace_drop_reported;
         QCheck_alcotest.to_alcotest isolation_property ]);
      ("interprovider",
       [ Alcotest.test_case "cross-carrier delivery" `Quick
           test_interprovider_cross_carrier_delivery;
         Alcotest.test_case "reverse direction" `Quick
           test_interprovider_reverse_direction;
         Alcotest.test_case "igp isolation" `Quick
           test_interprovider_igp_isolation;
         Alcotest.test_case "unknown prefix refused" `Quick
           test_interprovider_unknown_prefix_refused;
         Alcotest.test_case "intra-carrier stays native" `Quick
           test_interprovider_intra_carrier_still_native;
         Alcotest.test_case "multicast stays home" `Quick
           test_interprovider_multicast_stays_home ]);
      ("traffic",
       [ Alcotest.test_case "cbr count" `Quick test_traffic_cbr_count;
         Alcotest.test_case "poisson mean" `Quick test_traffic_poisson_mean;
         Alcotest.test_case "poisson firing allocates nothing" `Quick
           test_traffic_poisson_firing_allocates_nothing;
         Alcotest.test_case "onoff duty" `Quick
           test_traffic_onoff_duty_cycle;
         Alcotest.test_case "pareto bursts" `Quick
           test_traffic_pareto_bursts;
         Alcotest.test_case "sender and sink" `Quick
           test_traffic_sender_and_sink ]);
      ("l2vpn",
       [ Alcotest.test_case "pseudowire end to end" `Quick
           test_l2vpn_pw_end_to_end;
         Alcotest.test_case "local switching" `Quick
           test_l2vpn_local_switching;
         Alcotest.test_case "coexists with l3 vpn" `Quick
           test_l2vpn_coexists_with_l3vpn;
         Alcotest.test_case "deployed before l3 vpn" `Quick
           test_l2vpn_deployed_before_l3vpn;
         Alcotest.test_case "frame relay interworking" `Quick
           test_l2vpn_frame_relay_interworking ]);
      ("accounting",
       [ Alcotest.test_case "usage and invoice" `Quick
           test_accounting_usage_and_invoice;
         Alcotest.test_case "wrapped sink" `Quick
           test_accounting_wrapped_sink ]);
      ("planning",
       [ Alcotest.test_case "spf overload" `Quick test_planning_spf_overload;
         Alcotest.test_case "capacity aware spreads" `Quick
           test_planning_capacity_aware_spreads;
         Alcotest.test_case "ecmp splits ties" `Quick
           test_planning_ecmp_splits_ties;
         Alcotest.test_case "ecmp conserves flow" `Quick
           test_planning_ecmp_conserves_flow;
         Alcotest.test_case "unreachable demand" `Quick
           test_planning_unreachable_demand ]);
      ("conformance",
       [ Alcotest.test_case "accounting gauges match usage" `Quick
           (wrap_telemetry test_accounting_gauges_match_usage);
         Alcotest.test_case "span attributes delivery" `Quick
           (wrap_telemetry test_span_attributes_delivery);
         Alcotest.test_case "slo sees failure and repair" `Quick
           (wrap_telemetry test_slo_sees_failure_and_repair);
         Alcotest.test_case "overlay ike-pending drop attributed" `Quick
           (wrap_telemetry test_overlay_ike_pending_attributed);
         Alcotest.test_case "l2vpn pw-unreachable drop attributed" `Quick
           (wrap_telemetry test_l2vpn_pw_unreachable_attributed);
         Alcotest.test_case "l2vpn pw delivery observed" `Quick
           (wrap_telemetry test_l2vpn_pw_delivery_observed) ]);
      ("scenario",
       [ Alcotest.test_case "qos protects voice" `Slow
           test_scenario_mpls_qos_protects_voice;
         Alcotest.test_case "isolation under load" `Slow
           test_scenario_isolation_under_load;
         Alcotest.test_case "overlay deployment" `Quick
           test_scenario_overlay_deployment_runs;
         Alcotest.test_case "bitwise determinism" `Quick
           test_simulation_determinism;
         Alcotest.test_case "bounded residency" `Slow
           (wrap_telemetry test_bounded_residency);
         Alcotest.test_case "sampler validates intervals" `Quick
           test_sampler_interval_validation;
         Alcotest.test_case "sampler burn rate" `Quick test_sampler_burn;
         Alcotest.test_case "diurnal workload validates" `Quick
           test_diurnal_workload_validation;
         Alcotest.test_case "diurnal envelope modulates load" `Quick
           test_diurnal_workload_modulates;
         QCheck_alcotest.to_alcotest failure_churn_property;
         QCheck_alcotest.to_alcotest default_pairs_property ]) ]
