open Mvpn_routing
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Prefix = Mvpn_net.Prefix
module Fib = Mvpn_net.Fib
module Ipv4 = Mvpn_net.Ipv4

let pfx = Prefix.of_string_exn
let ip = Ipv4.of_string_exn

(* A diamond: 0 -1- 1 -1- 3, 0 -1- 2 -2- 3 (costs on edges). *)
let diamond () =
  let t = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node t) in
  let bw = 1e9 and delay = 0.001 in
  ignore (Topology.connect ~cost:1 t n.(0) n.(1) ~bandwidth:bw ~delay);
  ignore (Topology.connect ~cost:1 t n.(1) n.(3) ~bandwidth:bw ~delay);
  ignore (Topology.connect ~cost:1 t n.(0) n.(2) ~bandwidth:bw ~delay);
  ignore (Topology.connect ~cost:2 t n.(2) n.(3) ~bandwidth:bw ~delay);
  (t, n)

(* --- Spf -------------------------------------------------------------- *)

let test_spf_shortest () =
  let t, n = diamond () in
  (match Spf.shortest_path t ~src:n.(0) ~dst:n.(3) with
   | Some path -> Alcotest.(check (list int)) "via 1" [0; 1; 3] path
   | None -> Alcotest.fail "no path");
  Alcotest.(check (option (list int))) "self" (Some [0])
    (Spf.shortest_path t ~src:0 ~dst:0)

let test_spf_respects_down_links () =
  let t, n = diamond () in
  Topology.set_duplex_state t n.(0) n.(1) false;
  match Spf.shortest_path t ~src:n.(0) ~dst:n.(3) with
  | Some path -> Alcotest.(check (list int)) "detour via 2" [0; 2; 3] path
  | None -> Alcotest.fail "no path"

let test_spf_unreachable () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  Alcotest.(check (option (list int))) "disconnected" None
    (Spf.shortest_path t ~src:a ~dst:b)

let test_spf_custom_metric () =
  let t, n = diamond () in
  (* Make the 0-1 hop expensive via a custom metric: path flips. *)
  let metric (l : Topology.link) =
    if (l.Topology.src = 0 && l.Topology.dst = 1)
    || (l.Topology.src = 1 && l.Topology.dst = 0)
    then 10.0
    else float_of_int l.Topology.cost
  in
  match Spf.shortest_path ~metric t ~src:n.(0) ~dst:n.(3) with
  | Some path -> Alcotest.(check (list int)) "via 2 now" [0; 2; 3] path
  | None -> Alcotest.fail "no path"

let test_spf_tree_first_hops () =
  let t, n = diamond () in
  let tree = Spf.dijkstra t ~src:n.(0) in
  Alcotest.(check int) "first hop to 3" 1 tree.Spf.first_hop.(3);
  Alcotest.(check int) "first hop to 2" 2 tree.Spf.first_hop.(2);
  Alcotest.(check (float 1e-9)) "distance" 2.0 tree.Spf.dist.(3)

let test_spf_path_cost () =
  let t, _ = diamond () in
  Alcotest.(check (option (float 1e-9))) "cost" (Some 3.0)
    (Spf.path_cost t [0; 2; 3]);
  Alcotest.(check (option (float 1e-9))) "no link" None
    (Spf.path_cost t [0; 3])

let test_widest_path () =
  let t = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node t) in
  (* 0->1->3 narrow (10), 0->2->3 wide (100). *)
  ignore (Topology.connect t n.(0) n.(1) ~bandwidth:10.0 ~delay:0.001);
  ignore (Topology.connect t n.(1) n.(3) ~bandwidth:10.0 ~delay:0.001);
  ignore (Topology.connect t n.(0) n.(2) ~bandwidth:100.0 ~delay:0.001);
  ignore (Topology.connect t n.(2) n.(3) ~bandwidth:100.0 ~delay:0.001);
  match Spf.widest_path t ~src:n.(0) ~dst:n.(3) with
  | Some (path, width) ->
    Alcotest.(check (list int)) "wide route" [0; 2; 3] path;
    Alcotest.(check (float 1e-9)) "bottleneck" 100.0 width
  | None -> Alcotest.fail "no path"

let test_widest_path_sees_reservations () =
  let t = Topology.create () in
  let n = Array.init 3 (fun _ -> Topology.add_node t) in
  let ab, _ = Topology.connect t n.(0) n.(1) ~bandwidth:100.0 ~delay:0.001 in
  ignore (Topology.connect t n.(1) n.(2) ~bandwidth:100.0 ~delay:0.001);
  ignore (Topology.reserve ab 80.0);
  match Spf.widest_path t ~src:n.(0) ~dst:n.(2) with
  | Some (_, width) -> Alcotest.(check (float 1e-9)) "bottleneck" 20.0 width
  | None -> Alcotest.fail "no path"

let test_k_shortest () =
  let t, n = diamond () in
  let paths = Spf.k_shortest ~k:3 t ~src:n.(0) ~dst:n.(3) in
  Alcotest.(check int) "two distinct paths" 2 (List.length paths);
  Alcotest.(check (list int)) "best first" [0; 1; 3] (List.hd paths);
  Alcotest.(check (list int)) "second" [0; 2; 3] (List.nth paths 1)

let k_shortest_sorted =
  QCheck.Test.make ~name:"k-shortest paths are cost-sorted and loop-free"
    ~count:50
    QCheck.(pair (int_range 4 12) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed + 1) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:n ~bandwidth:1e9
           ~delay:0.001
       in
       let paths = Spf.k_shortest ~k:4 t ~src:ids.(0) ~dst:ids.(n - 1) in
       let costs =
         List.map
           (fun p ->
              match Spf.path_cost t p with Some c -> c | None -> nan)
           paths
       in
       let sorted = List.sort Float.compare costs in
       costs = sorted
       && List.for_all
            (fun p ->
               List.length (List.sort_uniq Int.compare p) = List.length p)
            paths)

let spf_triangle_inequality =
  QCheck.Test.make ~name:"spf distances satisfy the triangle inequality"
    ~count:40
    QCheck.(pair (int_range 3 12) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed * 17 + 11) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:4 ~bandwidth:1e9
           ~delay:0.001
       in
       let trees = Array.map (fun src -> Spf.dijkstra t ~src) ids in
       (* d(a,c) <= d(a,b) + d(b,c) for all triples (indices into ids). *)
       let d i j = trees.(i).Spf.dist.(ids.(j)) in
       let ok = ref true in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           for k = 0 to n - 1 do
             if Float.is_finite (d i j) && Float.is_finite (d j k)
             && d i k > d i j +. d j k +. 1e-9
             then ok := false
           done
         done
       done;
       !ok)

let spf_symmetric_on_duplex =
  QCheck.Test.make ~name:"spf distance is symmetric on duplex links"
    ~count:40
    QCheck.(pair (int_range 3 12) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed * 23 + 7) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:3 ~bandwidth:1e9
           ~delay:0.001
       in
       Array.for_all
         (fun a ->
            let ta = Spf.dijkstra t ~src:a in
            Array.for_all
              (fun b ->
                 let tb = Spf.dijkstra t ~src:b in
                 Float.abs (ta.Spf.dist.(b) -. tb.Spf.dist.(a)) < 1e-9)
              ids)
         ids)

(* --- Ospf ------------------------------------------------------------- *)

let test_ospf_domain_restriction () =
  (* Two islands joined by a link; routers restricted to their island
     must not learn the other island's prefixes even though the link is
     up. *)
  let t = Topology.create () in
  let left = Topology.line t 3 ~bandwidth:1e9 ~delay:0.001 in
  let right = Topology.line t 3 ~bandwidth:1e9 ~delay:0.001 in
  ignore (Topology.connect t left.(2) right.(0) ~bandwidth:1e9 ~delay:0.001);
  let members v = Array.exists (fun x -> x = v) left in
  let o = Ospf.create ~members t in
  Ospf.attach_prefix o left.(0) (pfx "10.1.0.0/16");
  ignore (Ospf.converge o);
  Alcotest.(check (option int)) "intra-domain route" (Some left.(1))
    (Fib.next_hop (Ospf.fib o left.(2)) (ip "10.1.0.1"));
  (* The right island is outside the domain: its routers got nothing,
     and left-side LSAs never flooded there. *)
  Alcotest.(check int) "outside empty" 0 (Fib.size (Ospf.fib o right.(0)))

let test_ospf_convergence () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(3) (pfx "10.3.0.0/16");
  let rounds = Ospf.converge o in
  Alcotest.(check bool) "some rounds" true (rounds > 0);
  Alcotest.(check bool) "converged" true (Ospf.converged o);
  Alcotest.(check (option int)) "fib route at 0" (Some 1)
    (Fib.next_hop (Ospf.fib o n.(0)) (ip "10.3.1.1"));
  (* Idempotent: nothing changed, zero extra rounds. *)
  Alcotest.(check int) "steady state" 0 (Ospf.converge o)

let test_ospf_local_delivery () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(2) (pfx "10.2.0.0/16");
  ignore (Ospf.converge o);
  Alcotest.(check (option int)) "local" (Some Fib.local_delivery)
    (Fib.next_hop (Ospf.fib o n.(2)) (ip "10.2.0.1"))

let test_ospf_reconvergence_after_failure () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(3) (pfx "10.3.0.0/16");
  ignore (Ospf.converge o);
  Alcotest.(check (option int)) "before failure via 1" (Some 1)
    (Fib.next_hop (Ospf.fib o n.(0)) (ip "10.3.1.1"));
  Topology.set_duplex_state t n.(1) n.(3) false;
  let rounds = Ospf.converge o in
  Alcotest.(check bool) "reflooding happened" true (rounds > 0);
  Alcotest.(check (option int)) "rerouted via 2" (Some 2)
    (Fib.next_hop (Ospf.fib o n.(0)) (ip "10.3.1.1"))

let test_ospf_partition () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001);
  let c = Topology.add_node t and d = Topology.add_node t in
  ignore (Topology.connect t c d ~bandwidth:1e9 ~delay:0.001);
  let o = Ospf.create t in
  Ospf.attach_prefix o d (pfx "10.4.0.0/16");
  ignore (Ospf.converge o);
  (* a cannot know d's prefix: different partition. *)
  Alcotest.(check (option int)) "no route across partition" None
    (Fib.next_hop (Ospf.fib o a) (ip "10.4.0.1"));
  Alcotest.(check (option int)) "partition-local route" (Some d)
    (Fib.next_hop (Ospf.fib o c) (ip "10.4.0.1"))

let test_ospf_distance () =
  let t, n = diamond () in
  let o = Ospf.create t in
  ignore (Ospf.converge o);
  Alcotest.(check (float 1e-9)) "distance 0->3" 2.0
    (Ospf.distance o ~src:n.(0) ~dst:n.(3));
  Alcotest.(check (option int)) "next hop" (Some 1)
    (Ospf.next_hop_to_router o ~src:n.(0) ~dst:n.(3))

let test_ospf_messages_counted () =
  let t, _ = diamond () in
  let o = Ospf.create t in
  ignore (Ospf.converge o);
  Alcotest.(check bool) "lsa copies flowed" true (Ospf.messages_sent o > 0)

let ospf_agrees_with_spf =
  QCheck.Test.make ~name:"ospf fib next hops agree with global spf"
    ~count:30
    QCheck.(pair (int_range 3 10) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed * 7 + 3) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:2 ~bandwidth:1e9
           ~delay:0.001
       in
       let o = Ospf.create t in
       let prefix_of i =
         Prefix.make (Ipv4.of_octets 10 i 0 0) 16
       in
       Array.iteri (fun i id -> Ospf.attach_prefix o id (prefix_of i)) ids;
       ignore (Ospf.converge o);
       (* For every src/dst pair, the OSPF next hop must lie on some
          shortest path: dist(src,dst) = cost(src,nh) + dist(nh,dst). *)
       Array.for_all
         (fun src ->
            Array.for_all
              (fun dst ->
                 src = dst
                 ||
                 let addr = Prefix.nth_host (prefix_of dst) 1 in
                 let _ = addr in
                 let tree = Spf.dijkstra t ~src in
                 match
                   Fib.next_hop (Ospf.fib o src)
                     (Prefix.nth_host
                        (prefix_of
                           (let rec idx i =
                              if ids.(i) = dst then i else idx (i + 1)
                            in
                            idx 0))
                        1)
                 with
                 | None -> not (Float.is_finite tree.Spf.dist.(dst))
                 | Some nh when nh = Fib.local_delivery -> src = dst
                 | Some nh ->
                   let nh_tree = Spf.dijkstra t ~src:nh in
                   (match Topology.find_link t src nh with
                    | None -> false
                    | Some l ->
                      Float.abs
                        (tree.Spf.dist.(dst)
                         -. (float_of_int l.Topology.cost
                             +. nh_tree.Spf.dist.(dst)))
                      < 1e-9))
              ids)
         ids)

(* --- Bgp -------------------------------------------------------------- *)

let test_bgp_ebgp_propagation () =
  let b = Bgp.create () in
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2 = Bgp.add_speaker b ~asn:300 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s2;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  ignore (Bgp.run b);
  (match Bgp.lookup b s2 (ip "203.0.113.7") with
   | Some r ->
     Alcotest.(check (list int)) "as path" [200; 100] r.Bgp.as_path
   | None -> Alcotest.fail "route did not propagate");
  Alcotest.(check bool) "messages counted" true (Bgp.messages_sent b > 0)

let test_bgp_loop_prevention () =
  let b = Bgp.create () in
  (* Triangle of three ASes; the route must not loop forever. *)
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2 = Bgp.add_speaker b ~asn:300 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s2;
  Bgp.peer b s2 s0;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  let rounds = Bgp.run b in
  Alcotest.(check bool) "terminates quickly" true (rounds <= 4);
  match Bgp.lookup b s1 (ip "203.0.113.1") with
  | Some r ->
    Alcotest.(check (list int)) "direct path wins" [100] r.Bgp.as_path
  | None -> Alcotest.fail "no route"

let test_bgp_ibgp_no_transit () =
  let b = Bgp.create () in
  (* AS 100: s0; AS 200: s1 - s2 - s3 in a line of iBGP sessions.
     s1 learns from eBGP and must pass to its iBGP peers... but s2 must
     NOT re-advertise to s3 (full-mesh rule). *)
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2 = Bgp.add_speaker b ~asn:200 in
  let s3 = Bgp.add_speaker b ~asn:200 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s2;
  Bgp.peer b s2 s3;
  Bgp.originate b s0 (pfx "198.51.100.0/24");
  ignore (Bgp.run b);
  Alcotest.(check bool) "s2 has the route" true
    (Bgp.lookup b s2 (ip "198.51.100.1") <> None);
  Alcotest.(check bool) "s3 must not (needs full mesh)" true
    (Bgp.lookup b s3 (ip "198.51.100.1") = None)

let test_bgp_decision_shortest_as_path () =
  let b = Bgp.create () in
  (* Two paths from s3 to s0's prefix: via s1 (1 AS) and via s2 (2 ASes
     chained). *)
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2a = Bgp.add_speaker b ~asn:300 in
  let s2b = Bgp.add_speaker b ~asn:400 in
  let s3 = Bgp.add_speaker b ~asn:500 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s3;
  Bgp.peer b s0 s2a;
  Bgp.peer b s2a s2b;
  Bgp.peer b s2b s3;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  ignore (Bgp.run b);
  match Bgp.lookup b s3 (ip "203.0.113.1") with
  | Some r ->
    Alcotest.(check (list int)) "short path chosen" [200; 100] r.Bgp.as_path
  | None -> Alcotest.fail "no route"

let test_bgp_local_pref_overrides () =
  let b = Bgp.create () in
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2a = Bgp.add_speaker b ~asn:300 in
  let s2b = Bgp.add_speaker b ~asn:400 in
  let s3 = Bgp.add_speaker b ~asn:500 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s3;
  Bgp.peer b s0 s2a;
  Bgp.peer b s2a s2b;
  Bgp.peer b s2b s3;
  (* Prefer the long way via policy. *)
  Bgp.set_local_pref b s3 ~neighbor:s2b 200;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  ignore (Bgp.run b);
  match Bgp.lookup b s3 (ip "203.0.113.1") with
  | Some r ->
    Alcotest.(check (list int)) "policy wins over length" [400; 300; 100]
      r.Bgp.as_path
  | None -> Alcotest.fail "no route"

(* --- Mpbgp ------------------------------------------------------------ *)

let rd n : Mpbgp.rd = { Mpbgp.rd_asn = 65000; rd_assigned = n }
let rt n : Mpbgp.rt = { Mpbgp.rt_asn = 65000; rt_value = n }

let vpn_route ?(site = 0) ~rd:r ~pe ~label ~rts prefix =
  { Mpbgp.rd = r; prefix = pfx prefix; next_hop_pe = pe; vpn_label = label;
    export_rts = rts; site }

let test_mpbgp_distribution () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2; 3];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] "10.0.0.0/16");
  ignore (Mpbgp.run m);
  let at2 = Mpbgp.import m ~pe:2 ~import_rts:[rt 1] in
  Alcotest.(check int) "pe2 imports" 1 (List.length at2);
  let r = List.hd at2 in
  Alcotest.(check int) "label carried" 100 r.Mpbgp.vpn_label;
  Alcotest.(check int) "next hop pe" 1 r.Mpbgp.next_hop_pe

let test_mpbgp_rt_filtering () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] "10.0.0.0/16");
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 2) ~pe:1 ~label:200 ~rts:[rt 2] "10.0.0.0/16");
  ignore (Mpbgp.run m);
  let green = Mpbgp.import m ~pe:2 ~import_rts:[rt 1] in
  Alcotest.(check int) "only vpn 1 routes" 1 (List.length green);
  Alcotest.(check int) "right label" 100 (List.hd green).Mpbgp.vpn_label

let test_mpbgp_overlapping_prefixes () =
  (* The same 10.0.0.0/16 in two VPNs is kept distinct by the RD. *)
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] "10.0.0.0/16");
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 2) ~pe:1 ~label:200 ~rts:[rt 2] "10.0.0.0/16");
  ignore (Mpbgp.run m);
  Alcotest.(check int) "both survive" 2 (Mpbgp.total_routes m);
  Alcotest.(check int) "pe2 sees both" 2
    (List.length
       (List.filter
          (fun r -> r.Mpbgp.next_hop_pe = 1)
          (Mpbgp.routes_at m 2)))

let test_mpbgp_withdraw () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~site:7 ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1]
       "10.0.0.0/16");
  ignore (Mpbgp.run m);
  Alcotest.(check int) "withdrawn" 1 (Mpbgp.withdraw_site m ~pe:1 ~site:7);
  ignore (Mpbgp.run m);
  Alcotest.(check int) "gone at pe2" 0
    (List.length (Mpbgp.import m ~pe:2 ~import_rts:[rt 1]))

let test_mpbgp_session_counts () =
  let mesh = Mpbgp.create () in
  List.iter (Mpbgp.add_pe mesh) [1; 2; 3; 4; 5];
  Alcotest.(check int) "full mesh" 10 (Mpbgp.session_count mesh);
  let rr = Mpbgp.create ~mode:(Mpbgp.Route_reflector 1) () in
  List.iter (Mpbgp.add_pe rr) [1; 2; 3; 4; 5];
  Alcotest.(check int) "route reflector" 4 (Mpbgp.session_count rr)

let test_mpbgp_rr_delivers_everywhere () =
  let m = Mpbgp.create ~mode:(Mpbgp.Route_reflector 1) () in
  List.iter (Mpbgp.add_pe m) [1; 2; 3];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:2 ~label:300 ~rts:[rt 1] "10.7.0.0/16");
  ignore (Mpbgp.run m);
  Alcotest.(check int) "pe3 got it via rr" 1
    (List.length (Mpbgp.import m ~pe:3 ~import_rts:[rt 1]));
  Alcotest.(check int) "rr itself has it" 1
    (List.length (Mpbgp.import m ~pe:1 ~import_rts:[rt 1]))

let test_mpbgp_run_idempotent () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:1 ~rts:[rt 1] "10.0.0.0/16");
  let first = Mpbgp.run m in
  Alcotest.(check bool) "work on first run" true (first > 0);
  Alcotest.(check int) "second run is a no-op" 0 (Mpbgp.run m)

(* Model check: random exports (including in-place updates of a key
   whose site changes), site withdrawals, late PEs and propagation
   rounds, against a brute-force model. The model holds each live
   announcement under its (RD, prefix, PE) key and each PE's
   Adj-RIB-In as the announcements delivered at the last round. A round
   costs one UPDATE per announcement a PE gains or loses, plus one per
   holder of an announcement whose label or RTs changed in place. *)
type mpbgp_op =
  | B_export of int * int * int * int * int * int
      (* pe, rd, prefix, site, label, rt mask *)
  | B_withdraw of int * int  (* pe, site *)
  | B_add_pe
  | B_run

let mpbgp_op_gen =
  let open QCheck.Gen in
  let small = int_range 0 2 in
  frequency
    [ (6,
       map
         (fun ((pe, rd, p), (site, label, mask)) ->
            B_export (pe, rd, p, site, label, mask))
         (pair (triple small small small)
            (triple small small (int_range 1 3))));
      (2, map2 (fun pe site -> B_withdraw (pe, site)) small small);
      (1, return B_add_pe);
      (3, return B_run) ]

let mpbgp_op_print = function
  | B_export (pe, r, p, s, l, m) ->
    Printf.sprintf "export(pe%d,rd%d,p%d,s%d,l%d,m%d)" pe r p s l m
  | B_withdraw (pe, s) -> Printf.sprintf "withdraw(pe%d,s%d)" pe s
  | B_add_pe -> "add_pe"
  | B_run -> "run"

type ann = {
  mutable route : Mpbgp.vpnv4_route;
  mutable noisy : bool;  (* label/RT change since the last round *)
}

let mpbgp_model_property =
  QCheck.Test.make ~name:"mpbgp indexes agree with a brute-force model"
    ~count:200
    QCheck.(
      pair bool
        (make ~shrink:Shrink.list
           ~print:(fun l -> String.concat " " (List.map mpbgp_op_print l))
           Gen.(list_size (int_range 0 40) mpbgp_op_gen)))
    (fun (rr, ops) ->
       let m =
         Mpbgp.create
           ~mode:(if rr then Mpbgp.Route_reflector 0 else Mpbgp.Full_mesh) ()
       in
       let pes = ref [ 0; 1 ] in
       List.iter (Mpbgp.add_pe m) !pes;
       let live : (int * int * int, ann) Hashtbl.t = Hashtbl.create 16 in
       let held : (int, ann list) Hashtbl.t = Hashtbl.create 8 in
       let msgs = ref 0 in
       let holds pe = Option.value ~default:[] (Hashtbl.find_opt held pe) in
       let rts_of mask =
         List.filter_map
           (fun v -> if mask land v <> 0 then Some (rt v) else None)
           [ 1; 2 ]
       in
       let nth_pe i = List.nth !pes (i mod List.length !pes) in
       let model_run () =
         let all = Hashtbl.fold (fun _ a acc -> a :: acc) live [] in
         List.iter
           (fun pe ->
              let before = holds pe in
              let after =
                List.filter (fun a -> a.route.Mpbgp.next_hop_pe <> pe) all
              in
              List.iter
                (fun a ->
                   if not (List.memq a before) then incr msgs
                   else if a.noisy then incr msgs)
                after;
              List.iter
                (fun a -> if not (List.memq a after) then incr msgs)
                before;
              Hashtbl.replace held pe after)
           !pes;
         List.iter (fun a -> a.noisy <- false) all
       in
       let by_content = List.sort compare in
       let agree () =
         Mpbgp.total_routes m = Hashtbl.length live
         && Mpbgp.messages_sent m = !msgs
         && List.for_all
              (fun pe ->
                 List.for_all
                   (fun import_rts ->
                      let want =
                        List.filter_map
                          (fun a ->
                             if
                               List.exists
                                 (fun x -> List.mem x import_rts)
                                 a.route.Mpbgp.export_rts
                             then Some a.route
                             else None)
                          (holds pe)
                      in
                      by_content (Mpbgp.import m ~pe ~import_rts)
                      = by_content want)
                   [ [ rt 1 ]; [ rt 2 ]; [ rt 1; rt 2 ] ])
              !pes
       in
       List.for_all
         (fun op ->
            let ok =
              match op with
              | B_export (pe, r, p, site, label, mask) ->
                let pe = nth_pe pe in
                let route =
                  vpn_route ~site ~rd:(rd r) ~pe ~label ~rts:(rts_of mask)
                    (Printf.sprintf "10.%d.0.0/16" p)
                in
                Mpbgp.export_route m route;
                (match Hashtbl.find_opt live (r, p, pe) with
                 | Some a ->
                   if a.route.Mpbgp.vpn_label <> label
                   || a.route.Mpbgp.export_rts <> route.Mpbgp.export_rts
                   then a.noisy <- true;
                   a.route <- route
                 | None ->
                   Hashtbl.replace live (r, p, pe) { route; noisy = false });
                true
              | B_withdraw (pe, site) ->
                let pe = nth_pe pe in
                let victims =
                  Hashtbl.fold
                    (fun k a acc ->
                       let _, _, pe' = k in
                       if pe' = pe && a.route.Mpbgp.site = site then k :: acc
                       else acc)
                    live []
                in
                List.iter (Hashtbl.remove live) victims;
                Mpbgp.withdraw_site m ~pe ~site = List.length victims
              | B_add_pe ->
                let pe = List.length !pes in
                Mpbgp.add_pe m pe;
                pes := !pes @ [ pe ];
                true
              | B_run ->
                model_run ();
                let before = Mpbgp.messages_sent m in
                let sent = Mpbgp.run m in
                sent = Mpbgp.messages_sent m - before
            in
            ok && agree ())
         ops)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "routing"
    [ ("spf",
       [ Alcotest.test_case "shortest" `Quick test_spf_shortest;
         Alcotest.test_case "down links" `Quick
           test_spf_respects_down_links;
         Alcotest.test_case "unreachable" `Quick test_spf_unreachable;
         Alcotest.test_case "custom metric" `Quick test_spf_custom_metric;
         Alcotest.test_case "tree first hops" `Quick
           test_spf_tree_first_hops;
         Alcotest.test_case "path cost" `Quick test_spf_path_cost;
         Alcotest.test_case "widest path" `Quick test_widest_path;
         Alcotest.test_case "widest sees reservations" `Quick
           test_widest_path_sees_reservations;
         Alcotest.test_case "k shortest" `Quick test_k_shortest;
         qt k_shortest_sorted;
         qt spf_triangle_inequality;
         qt spf_symmetric_on_duplex ]);
      ("ospf",
       [ Alcotest.test_case "convergence" `Quick test_ospf_convergence;
         Alcotest.test_case "domain restriction" `Quick
           test_ospf_domain_restriction;
         Alcotest.test_case "local delivery" `Quick
           test_ospf_local_delivery;
         Alcotest.test_case "reconvergence" `Quick
           test_ospf_reconvergence_after_failure;
         Alcotest.test_case "partition" `Quick test_ospf_partition;
         Alcotest.test_case "distance" `Quick test_ospf_distance;
         Alcotest.test_case "messages counted" `Quick
           test_ospf_messages_counted;
         qt ospf_agrees_with_spf ]);
      ("bgp",
       [ Alcotest.test_case "ebgp propagation" `Quick
           test_bgp_ebgp_propagation;
         Alcotest.test_case "loop prevention" `Quick
           test_bgp_loop_prevention;
         Alcotest.test_case "ibgp no transit" `Quick
           test_bgp_ibgp_no_transit;
         Alcotest.test_case "shortest as path" `Quick
           test_bgp_decision_shortest_as_path;
         Alcotest.test_case "local pref" `Quick
           test_bgp_local_pref_overrides ]);
      ("mpbgp",
       [ Alcotest.test_case "distribution" `Quick test_mpbgp_distribution;
         Alcotest.test_case "rt filtering" `Quick test_mpbgp_rt_filtering;
         Alcotest.test_case "overlapping prefixes" `Quick
           test_mpbgp_overlapping_prefixes;
         Alcotest.test_case "withdraw" `Quick test_mpbgp_withdraw;
         Alcotest.test_case "session counts" `Quick
           test_mpbgp_session_counts;
         Alcotest.test_case "route reflector" `Quick
           test_mpbgp_rr_delivers_everywhere;
         Alcotest.test_case "run idempotent" `Quick
           test_mpbgp_run_idempotent;
         qt mpbgp_model_property ]) ]
