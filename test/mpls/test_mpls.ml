open Mvpn_mpls
module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4
module Packet = Mvpn_net.Packet
module Flow = Mvpn_net.Flow

let pfx = Prefix.of_string_exn
let ip = Ipv4.of_string_exn

(* --- Label ------------------------------------------------------------ *)

let test_label_constants () =
  Alcotest.(check bool) "implicit null reserved" true
    (Label.is_reserved Label.implicit_null);
  Alcotest.(check bool) "16 not reserved" false (Label.is_reserved 16);
  Alcotest.(check bool) "max valid" true (Label.valid Label.max_label);
  Alcotest.(check bool) "2^20 invalid" false (Label.valid (Label.max_label + 1));
  Alcotest.(check bool) "negative invalid" false (Label.valid (-1))

let test_label_allocator () =
  let a = Label.Allocator.create () in
  let l1 = Label.Allocator.alloc a in
  let l2 = Label.Allocator.alloc a in
  Alcotest.(check int) "starts at 16" Label.first_unreserved l1;
  Alcotest.(check bool) "distinct" true (l1 <> l2);
  Alcotest.(check int) "count" 2 (Label.Allocator.allocated a)

(* --- Fec -------------------------------------------------------------- *)

let test_fec_compare () =
  let a = Fec.Prefix_fec (pfx "10.0.0.0/8") in
  let b = Fec.Tunnel_fec 3 in
  let c = Fec.Vpn_fec { vpn = 1; prefix = pfx "10.0.0.0/8" } in
  let c' = Fec.Vpn_fec { vpn = 2; prefix = pfx "10.0.0.0/8" } in
  Alcotest.(check bool) "self equal" true (Fec.equal a a);
  Alcotest.(check bool) "kinds differ" false (Fec.equal a b);
  Alcotest.(check bool) "vpn id distinguishes" false (Fec.equal c c');
  Alcotest.(check bool) "ordering total" true
    (Fec.compare a b = -Fec.compare b a)

(* --- Lfib ------------------------------------------------------------- *)

(* [Lfib.step_packed] returns its decision as a packed immediate int;
   decode it into a variant so the cases below read as plain matches. *)
type step =
  | Forward of int
  | Ip_continue of int
  | No_binding of int
  | Ttl_expired

let step lfib p =
  let r = Lfib.step_packed lfib p in
  let tag = Lfib.packed_tag r and arg = Lfib.packed_arg r in
  if tag = Lfib.tag_forward then Forward arg
  else if tag = Lfib.tag_ip_continue then Ip_continue arg
  else if tag = Lfib.tag_no_binding then No_binding arg
  else Ttl_expired

let test_lfib_install_lookup () =
  let l = Lfib.create () in
  Lfib.install l ~in_label:100 { Lfib.op = Lfib.Swap 200; next_hop = 5 };
  (match Lfib.lookup l 100 with
   | Some e -> Alcotest.(check int) "next hop" 5 e.Lfib.next_hop
   | None -> Alcotest.fail "missing entry");
  Alcotest.(check bool) "unknown label" true (Lfib.lookup l 101 = None);
  Alcotest.(check int) "size" 1 (Lfib.size l);
  Alcotest.(check bool) "uninstall" true (Lfib.uninstall l ~in_label:100);
  Alcotest.(check int) "empty" 0 (Lfib.size l)

let test_lfib_rejects_reserved () =
  let l = Lfib.create () in
  Alcotest.check_raises "reserved"
    (Invalid_argument "Lfib.install: reserved label 3") (fun () ->
      Lfib.install l ~in_label:3 { Lfib.op = Lfib.Pop; next_hop = 1 })

let labelled_packet ?(ttl = 64) label =
  let p = Packet.make ~now:0.0 (Flow.make (ip "10.0.0.1") (ip "10.1.0.1")) in
  Packet.push_label p ~label ~exp:0 ~ttl;
  p

let test_lfib_step_swap () =
  let l = Lfib.create () in
  Lfib.install l ~in_label:100 { Lfib.op = Lfib.Swap 200; next_hop = 7 };
  let p = labelled_packet 100 in
  (match step l p with
   | Forward nh -> Alcotest.(check int) "forwarded" 7 nh
   | _ -> Alcotest.fail "expected forward");
  let s = Packet.top_packed p in
  Alcotest.(check int) "label swapped" 200 (Packet.Shim.label s);
  Alcotest.(check int) "ttl decremented" 63 (Packet.Shim.ttl s)

let test_lfib_step_pop_to_ip () =
  let l = Lfib.create () in
  Lfib.install l ~in_label:100 { Lfib.op = Lfib.Pop; next_hop = 7 };
  let p = labelled_packet 100 in
  (match step l p with
   | Ip_continue nh -> Alcotest.(check int) "ip at next hop" 7 nh
   | _ -> Alcotest.fail "expected ip continue");
  Alcotest.(check bool) "stack empty" false (Packet.labelled p)

let test_lfib_step_pop_inner_remains () =
  let l = Lfib.create () in
  Lfib.install l ~in_label:200 { Lfib.op = Lfib.Pop; next_hop = 7 };
  let p = labelled_packet 300 in
  Packet.push_label p ~label:200 ~exp:0 ~ttl:64;
  (match step l p with
   | Forward nh -> Alcotest.(check int) "forward with inner" 7 nh
   | _ -> Alcotest.fail "expected forward");
  Alcotest.(check int) "inner label exposed" 300
    (Packet.Shim.label (Packet.top_packed p))

(* RFC 3443 uniform model: popping charges the hop against the shim TTL
   and propagates the decremented value inward, so time-to-live spent
   inside the LSP is not forgotten at the pop point. *)
let test_lfib_pop_ttl_reaches_ip_header () =
  let l = Lfib.create () in
  Lfib.install l ~in_label:100 { Lfib.op = Lfib.Pop; next_hop = 7 };
  let p = labelled_packet ~ttl:9 100 in
  (match step l p with
   | Ip_continue 7 -> ()
   | _ -> Alcotest.fail "expected ip continue");
  Alcotest.(check int) "ip ttl = shim ttl - 1" 8
    (Packet.visible_header p).Packet.ttl

let test_lfib_pop_ttl_reaches_inner_shim () =
  let l = Lfib.create () in
  Lfib.install l ~in_label:200 { Lfib.op = Lfib.Pop; next_hop = 7 };
  let p = labelled_packet ~ttl:64 300 in
  Packet.push_label p ~label:200 ~exp:0 ~ttl:5;
  (match step l p with
   | Forward 7 -> ()
   | _ -> Alcotest.fail "expected forward with inner label");
  Alcotest.(check int) "inner ttl = outer ttl - 1" 4
    (Packet.Shim.ttl (Packet.top_packed p))

let test_lfib_pop_never_raises_inner_ttl () =
  (* An inner TTL already lower than the popped shim's must stay put. *)
  let l = Lfib.create () in
  Lfib.install l ~in_label:200 { Lfib.op = Lfib.Pop; next_hop = 7 };
  let p = labelled_packet ~ttl:3 300 in
  Packet.push_label p ~label:200 ~exp:0 ~ttl:64;
  (match step l p with
   | Forward _ -> ()
   | _ -> Alcotest.fail "expected forward");
  Alcotest.(check int) "inner ttl unchanged" 3
    (Packet.Shim.ttl (Packet.top_packed p))

let test_lfib_pop_and_ip_ttl () =
  let l = Lfib.create () in
  Lfib.install l ~in_label:100 { Lfib.op = Lfib.Pop_and_ip; next_hop = 7 };
  let p = labelled_packet ~ttl:9 100 in
  (match step l p with
   | Ip_continue 7 -> ()
   | _ -> Alcotest.fail "expected ip continue");
  Alcotest.(check int) "ip ttl = shim ttl - 1" 8
    (Packet.visible_header p).Packet.ttl

let test_lfib_pop_ttl_boundary () =
  (* Shim TTL 2: the pop itself succeeds exposing TTL 1, and the next
     label hop must then expire the packet. *)
  let l = Lfib.create () in
  Lfib.install l ~in_label:200 { Lfib.op = Lfib.Pop; next_hop = 7 };
  let p = labelled_packet ~ttl:64 300 in
  Packet.push_label p ~label:200 ~exp:0 ~ttl:2;
  (match step l p with
   | Forward 7 -> ()
   | _ -> Alcotest.fail "pop at ttl 2 should still forward");
  Alcotest.(check int) "exposed ttl" 1 (Packet.Shim.ttl (Packet.top_packed p));
  let next = Lfib.create () in
  Lfib.install next ~in_label:300 { Lfib.op = Lfib.Swap 301; next_hop = 8 };
  match step next p with
  | Ttl_expired -> ()
  | _ -> Alcotest.fail "next hop should expire the packet"

let test_lfib_step_ttl () =
  let l = Lfib.create () in
  Lfib.install l ~in_label:100 { Lfib.op = Lfib.Swap 200; next_hop = 7 };
  let p = labelled_packet ~ttl:1 100 in
  match step l p with
  | Ttl_expired -> ()
  | _ -> Alcotest.fail "expected ttl expiry"

let test_lfib_step_no_binding () =
  let l = Lfib.create () in
  let p = labelled_packet 999 in
  match step l p with
  | No_binding 999 -> ()
  | _ -> Alcotest.fail "expected no binding"

(* --- Ldp -------------------------------------------------------------- *)

(* Line: 0 - 1 - 2 - 3; FEC egress at 3. *)
let line4 () =
  let t = Topology.create () in
  let ids = Topology.line t 4 ~bandwidth:1e9 ~delay:0.001 in
  (t, ids)

let test_ldp_end_to_end_php () =
  let topo, n = line4 () in
  let plane = Plane.create ~nodes:4 in
  let dest = pfx "10.3.0.0/16" in
  let ldp = Ldp.distribute topo plane ~fecs:[(dest, n.(3))] in
  (* Ingress at 0 pushes toward 1. *)
  let l0 =
    match Ldp.ingress_label ldp ~router:n.(0) dest with
    | Some l -> l
    | None -> Alcotest.fail "no ingress label at 0"
  in
  let p =
    Packet.make ~now:0.0 (Flow.make (ip "10.0.0.1") (ip "10.3.0.1"))
  in
  Packet.push_label p ~label:l0 ~exp:0 ~ttl:64;
  (* Walk the LSP: node 1 swaps, node 2 (penultimate) pops. *)
  (match step (Plane.lfib plane n.(1)) p with
   | Forward nh -> Alcotest.(check int) "1 -> 2" n.(2) nh
   | _ -> Alcotest.fail "node 1 should forward");
  (match step (Plane.lfib plane n.(2)) p with
   | Ip_continue nh ->
     Alcotest.(check int) "php: ip continues at 3" n.(3) nh
   | _ -> Alcotest.fail "node 2 should pop (php)");
  Alcotest.(check bool) "unlabelled at egress" false (Packet.labelled p)

let test_ldp_no_php_egress_pops () =
  let topo, n = line4 () in
  let plane = Plane.create ~nodes:4 in
  let dest = pfx "10.3.0.0/16" in
  let ldp = Ldp.distribute ~php:false topo plane ~fecs:[(dest, n.(3))] in
  Alcotest.(check bool) "egress has a real binding" true
    (match Ldp.local_binding ldp ~router:n.(3) dest with
     | Some l -> l >= Label.first_unreserved
     | None -> false);
  let p =
    Packet.make ~now:0.0 (Flow.make (ip "10.0.0.1") (ip "10.3.0.1"))
  in
  let l2 =
    match Ldp.local_binding ldp ~router:n.(2) dest with
    | Some l -> l
    | None -> Alcotest.fail "no binding at 2"
  in
  Packet.push_label p ~label:l2 ~exp:0 ~ttl:64;
  (match step (Plane.lfib plane n.(2)) p with
   | Forward nh -> Alcotest.(check int) "2 swaps to 3" n.(3) nh
   | _ -> Alcotest.fail "node 2 should swap without php");
  match step (Plane.lfib plane n.(3)) p with
  | Ip_continue nh ->
    Alcotest.(check int) "egress pops locally" Lfib.local nh
  | _ -> Alcotest.fail "egress should pop"

let test_ldp_php_egress_binding_is_implicit_null () =
  let topo, n = line4 () in
  let plane = Plane.create ~nodes:4 in
  let dest = pfx "10.3.0.0/16" in
  let ldp = Ldp.distribute topo plane ~fecs:[(dest, n.(3))] in
  Alcotest.(check (option int)) "implicit null" (Some Label.implicit_null)
    (Ldp.local_binding ldp ~router:n.(3) dest)

let test_ldp_refresh_after_failure () =
  (* Diamond so a detour exists. *)
  let topo = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node topo) in
  ignore (Topology.connect topo n.(0) n.(1) ~bandwidth:1e9 ~delay:0.001);
  ignore (Topology.connect topo n.(1) n.(3) ~bandwidth:1e9 ~delay:0.001);
  ignore (Topology.connect topo n.(0) n.(2) ~bandwidth:1e9 ~delay:0.001);
  ignore
    (Topology.connect ~cost:2 topo n.(2) n.(3) ~bandwidth:1e9 ~delay:0.001);
  let plane = Plane.create ~nodes:4 in
  let dest = pfx "10.3.0.0/16" in
  let ldp = Ldp.distribute topo plane ~fecs:[(dest, n.(3))] in
  let fec = Fec.Prefix_fec dest in
  (match Plane.find_ftn plane n.(0) fec with
   | Some e -> Alcotest.(check int) "before: via 1" n.(1) e.Plane.next_hop
   | None -> Alcotest.fail "no ftn before failure");
  Topology.set_duplex_state topo n.(0) n.(1) false;
  Ldp.refresh ldp;
  match Plane.find_ftn plane n.(0) fec with
  | Some e -> Alcotest.(check int) "after: via 2" n.(2) e.Plane.next_hop
  | None -> Alcotest.fail "no ftn after refresh"

(* An LDP re-splice must be visible to FTN caches: refresh goes through
   {!Plane.install_ftn}/{!Plane.remove_ftn}, so the ingress node's FTN
   generation moves whenever its binding does. *)
let test_plane_ftn_generation_tracks_refresh () =
  let topo = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node topo) in
  ignore (Topology.connect topo n.(0) n.(1) ~bandwidth:1e9 ~delay:0.001);
  ignore (Topology.connect topo n.(1) n.(3) ~bandwidth:1e9 ~delay:0.001);
  ignore (Topology.connect topo n.(0) n.(2) ~bandwidth:1e9 ~delay:0.001);
  ignore
    (Topology.connect ~cost:2 topo n.(2) n.(3) ~bandwidth:1e9 ~delay:0.001);
  let plane = Plane.create ~nodes:4 in
  let dest = pfx "10.3.0.0/16" in
  let g0 = Plane.ftn_generation plane n.(0) in
  let ldp = Ldp.distribute topo plane ~fecs:[(dest, n.(3))] in
  let g1 = Plane.ftn_generation plane n.(0) in
  Alcotest.(check bool) "distribute bumps ingress" true (g1 > g0);
  Topology.set_duplex_state topo n.(0) n.(1) false;
  Ldp.refresh ldp;
  Alcotest.(check bool) "refresh bumps ingress" true
    (Plane.ftn_generation plane n.(0) > g1);
  (* Direct FTN surgery counts too. *)
  let g2 = Plane.ftn_generation plane n.(1) in
  Plane.install_ftn plane n.(1) (Fec.Prefix_fec dest)
    { Plane.push = 77; next_hop = n.(3) };
  let g3 = Plane.ftn_generation plane n.(1) in
  Alcotest.(check bool) "install_ftn bumps" true (g3 > g2);
  Alcotest.(check bool) "remove hit" true
    (Plane.remove_ftn plane n.(1) (Fec.Prefix_fec dest));
  let g4 = Plane.ftn_generation plane n.(1) in
  Alcotest.(check bool) "remove_ftn bumps" true (g4 > g3);
  Alcotest.(check bool) "remove miss" false
    (Plane.remove_ftn plane n.(1) (Fec.Prefix_fec dest));
  Alcotest.(check int) "no-op remove does not bump" g4
    (Plane.ftn_generation plane n.(1))

let test_ldp_refresh_removes_unreachable () =
  (* Partition the egress: refresh must withdraw the FTN entries of
     routers that lost reachability. *)
  let topo, n = line4 () in
  let plane = Plane.create ~nodes:4 in
  let dest = pfx "10.3.0.0/16" in
  let ldp = Ldp.distribute topo plane ~fecs:[(dest, n.(3))] in
  let fec = Fec.Prefix_fec dest in
  Alcotest.(check bool) "ftn before" true
    (Plane.find_ftn plane n.(0) fec <> None);
  Topology.set_duplex_state topo n.(1) n.(2) false;
  Ldp.refresh ldp;
  Alcotest.(check bool) "node 0 withdrawn" true
    (Plane.find_ftn plane n.(0) fec = None);
  Alcotest.(check bool) "node 1 withdrawn" true
    (Plane.find_ftn plane n.(1) fec = None);
  (* Repair and refresh: reachability returns with the same binding. *)
  let before =
    match Ldp.local_binding ldp ~router:n.(0) dest with
    | Some l -> l
    | None -> Alcotest.fail "binding lost"
  in
  Topology.set_duplex_state topo n.(1) n.(2) true;
  Ldp.refresh ldp;
  (match Plane.find_ftn plane n.(0) fec with
   | Some _ -> ()
   | None -> Alcotest.fail "ftn not restored");
  Alcotest.(check (option int)) "binding stable" (Some before)
    (Ldp.local_binding ldp ~router:n.(0) dest)

let test_ldp_messages_and_state () =
  let topo, n = line4 () in
  let plane = Plane.create ~nodes:4 in
  let ldp =
    Ldp.distribute topo plane
      ~fecs:[(pfx "10.3.0.0/16", n.(3)); (pfx "10.0.0.0/16", n.(0))]
  in
  Alcotest.(check int) "fecs" 2 (Ldp.fec_count ldp);
  Alcotest.(check bool) "messages counted" true (Ldp.messages ldp > 0);
  Alcotest.(check bool) "lfib state exists" true
    (Plane.total_lfib_entries plane > 0)

let ldp_lsp_always_reaches_egress =
  QCheck.Test.make ~name:"ldp lsp from any ingress reaches the egress"
    ~count:40
    QCheck.(pair (int_range 3 10) small_int)
    (fun (n, seed) ->
       let topo = Topology.create () in
       let rng = Mvpn_sim.Rng.create (seed * 31 + 1) in
       let ids =
         Topology.random_connected topo rng ~n ~extra_links:3
           ~bandwidth:1e9 ~delay:0.001
       in
       let plane = Plane.create ~nodes:(Topology.node_count topo) in
       let dest = pfx "10.99.0.0/16" in
       let egress = ids.(n - 1) in
       let ldp = Ldp.distribute topo plane ~fecs:[(dest, egress)] in
       ignore ldp;
       let fec = Fec.Prefix_fec dest in
       Array.for_all
         (fun ingress ->
            if ingress = egress then true
            else begin
              let p =
                Packet.make ~now:0.0
                  (Flow.make (ip "10.0.0.1") (ip "10.99.0.1"))
              in
              match Plane.find_ftn plane ingress fec with
              | None ->
                (* Next hop is the PHP egress: traffic goes unlabelled,
                   which counts as reaching it. *)
                (match
                   Mvpn_routing.Spf.shortest_path topo ~src:ingress
                     ~dst:egress
                 with
                 | Some [_; e] -> e = egress
                 | Some _ | None -> false)
              | Some e ->
                Packet.push_label p ~label:e.Plane.push ~exp:0 ~ttl:64;
                let rec walk at hops =
                  if hops > 50 then false
                  else if not (Packet.labelled p) then at = egress
                  else
                    match step (Plane.lfib plane at) p with
                    | Forward nh -> walk nh (hops + 1)
                    | Ip_continue nh ->
                      (nh = egress)
                      || (nh = Lfib.local && at = egress)
                    | No_binding _ | Ttl_expired -> false
                in
                walk e.Plane.next_hop 0
            end)
         ids)

(* LDP splice property: on random topologies, every router's outgoing
   label for a FEC equals its next hop's local binding — the invariant
   label distribution exists to establish. *)
let ldp_splice_consistency =
  QCheck.Test.make ~name:"ldp: pushed label = next hop's local binding"
    ~count:40
    QCheck.(pair (int_range 3 10) small_int)
    (fun (n, seed) ->
       let topo = Topology.create () in
       let rng = Mvpn_sim.Rng.create (seed * 13 + 5) in
       let ids =
         Topology.random_connected topo rng ~n ~extra_links:2
           ~bandwidth:1e9 ~delay:0.001
       in
       let plane = Plane.create ~nodes:(Topology.node_count topo) in
       let dest = pfx "10.50.0.0/16" in
       let egress = ids.(0) in
       let ldp = Ldp.distribute topo plane ~fecs:[(dest, egress)] in
       Array.for_all
         (fun r ->
            if r = egress then true
            else
              match Plane.find_ftn plane r (Fec.Prefix_fec dest) with
              | None -> true  (* adjacent-to-egress PHP case *)
              | Some e ->
                (match Ldp.local_binding ldp ~router:e.Plane.next_hop dest with
                 | Some binding -> binding = e.Plane.push
                 | None -> false))
         ids)

(* --- CSPF admission ----------------------------------------------------- *)

(* RSVP-TE's CSPF admission prunes links without room for the demand,
   then runs SPF on the rest; IGP-only admission takes the plain SPF
   path whatever it holds. Each demand signals on a fresh topology. *)
let test_cspf_avoids_reserved () =
  let path admission bandwidth =
    let topo = Topology.create () in
    let n = Array.init 4 (fun _ -> Topology.add_node topo) in
    (* Short path 0-1-3 at low capacity, long path 0-2-3 at high. *)
    ignore (Topology.connect topo n.(0) n.(1) ~bandwidth:50.0 ~delay:0.001);
    ignore (Topology.connect topo n.(1) n.(3) ~bandwidth:50.0 ~delay:0.001);
    ignore
      (Topology.connect ~cost:5 topo n.(0) n.(2) ~bandwidth:1000.0
         ~delay:0.001);
    ignore
      (Topology.connect ~cost:5 topo n.(2) n.(3) ~bandwidth:1000.0
         ~delay:0.001);
    let te = Rsvp_te.create topo (Plane.create ~nodes:4) in
    match Rsvp_te.signal te ~admission ~src:n.(0) ~dst:n.(3) ~bandwidth with
    | Ok tn -> Some tn.Rsvp_te.path
    | Error _ -> None
  in
  Alcotest.(check (option (list int))) "small demand takes short path"
    (Some [0; 1; 3]) (path Rsvp_te.Cspf 40.0);
  Alcotest.(check (option (list int))) "big demand detours"
    (Some [0; 2; 3]) (path Rsvp_te.Cspf 100.0);
  Alcotest.(check (option (list int))) "impossible demand" None
    (path Rsvp_te.Cspf 5000.0);
  Alcotest.(check (option (list int))) "igp blind" (Some [0; 1; 3])
    (path Rsvp_te.Igp_only 100.0)

(* --- Rsvp_te ---------------------------------------------------------- *)

let te_topo () =
  (* Diamond with equal costs both ways: 0-1-3 and 0-2-3, capacity 100. *)
  let topo = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node topo) in
  ignore (Topology.connect topo n.(0) n.(1) ~bandwidth:100.0 ~delay:0.001);
  ignore (Topology.connect topo n.(1) n.(3) ~bandwidth:100.0 ~delay:0.001);
  ignore
    (Topology.connect ~cost:2 topo n.(0) n.(2) ~bandwidth:100.0 ~delay:0.001);
  ignore
    (Topology.connect ~cost:2 topo n.(2) n.(3) ~bandwidth:100.0 ~delay:0.001);
  (topo, n)

let test_te_signal_reserves_and_installs () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  (match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:60.0 with
   | Ok tn ->
     Alcotest.(check (list int)) "short path" [0; 1; 3] tn.Rsvp_te.path;
     (match Topology.find_link topo n.(0) n.(1) with
      | Some l ->
        Alcotest.(check (float 1e-9)) "reserved" 60.0 l.Topology.reserved
      | None -> Alcotest.fail "link missing");
     Alcotest.(check bool) "ingress ftn installed" true
       (Plane.find_ftn plane n.(0) (Rsvp_te.ingress_fec tn) <> None)
   | Error e -> Alcotest.failf "signal failed: %s" e);
  (* Second tunnel does not fit on the short path -> detours. *)
  match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:60.0 with
  | Ok tn ->
    Alcotest.(check (list int)) "spread to long path" [0; 2; 3]
      tn.Rsvp_te.path
  | Error e -> Alcotest.failf "second signal failed: %s" e

let test_te_admission_refusal () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  (match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:80.0 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "first: %s" e);
  (match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:80.0 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "second: %s" e);
  (* Both paths now hold 80/100; a third 80 must be refused. *)
  match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:80.0 with
  | Ok _ -> Alcotest.fail "should have been refused"
  | Error _ -> ()

let test_te_igp_only_overcommits () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  for _ = 1 to 3 do
    match
      Rsvp_te.signal te ~admission:Rsvp_te.Igp_only ~src:n.(0) ~dst:n.(3)
        ~bandwidth:60.0
    with
    | Ok tn ->
      Alcotest.(check (list int)) "always the igp path" [0; 1; 3]
        tn.Rsvp_te.path
    | Error e -> Alcotest.failf "igp admission refused: %s" e
  done;
  let over = Rsvp_te.overcommitted_links te in
  Alcotest.(check bool) "links overcommitted" true (List.length over > 0);
  let _, excess = List.hd over in
  Alcotest.(check (float 1e-9)) "excess" 80.0 excess

let test_te_teardown_releases () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:60.0 with
  | Error e -> Alcotest.failf "signal: %s" e
  | Ok tn ->
    Alcotest.(check bool) "teardown" true (Rsvp_te.teardown te tn.Rsvp_te.id);
    (match Topology.find_link topo n.(0) n.(1) with
     | Some l ->
       Alcotest.(check (float 1e-9)) "released" 0.0 l.Topology.reserved
     | None -> Alcotest.fail "link missing");
    Alcotest.(check bool) "idempotent" false
      (Rsvp_te.teardown te tn.Rsvp_te.id)

let test_te_preemption () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  (* Fill both paths with low-priority tunnels. *)
  (match
     Rsvp_te.signal te ~setup_priority:7 ~hold_priority:7 ~src:n.(0)
       ~dst:n.(3) ~bandwidth:80.0
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "lp1: %s" e);
  (match
     Rsvp_te.signal te ~setup_priority:7 ~hold_priority:7 ~src:n.(0)
       ~dst:n.(3) ~bandwidth:80.0
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "lp2: %s" e);
  (* High-priority tunnel preempts. *)
  match
    Rsvp_te.signal te ~setup_priority:0 ~hold_priority:0 ~allow_preempt:true
      ~src:n.(0) ~dst:n.(3) ~bandwidth:80.0
  with
  | Ok tn ->
    Alcotest.(check bool) "up" true tn.Rsvp_te.up;
    let down =
      List.filter (fun t -> not t.Rsvp_te.up) (Rsvp_te.tunnels te)
    in
    Alcotest.(check int) "one victim" 1 (List.length down)
  | Error e -> Alcotest.failf "preemption failed: %s" e

let test_te_failure_and_reroute () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  (match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:60.0 with
   | Ok tn ->
     Alcotest.(check (list int)) "initial path" [0; 1; 3] tn.Rsvp_te.path
   | Error e -> Alcotest.failf "signal: %s" e);
  Topology.set_duplex_state topo n.(1) n.(3) false;
  Alcotest.(check int) "one tunnel down" 1 (Rsvp_te.handle_link_failure te);
  let restored, still_down = Rsvp_te.reroute_down te in
  Alcotest.(check int) "restored" 1 restored;
  Alcotest.(check int) "none stuck" 0 still_down;
  match Rsvp_te.tunnels te with
  | [tn] ->
    Alcotest.(check (list int)) "detour path" [0; 2; 3] tn.Rsvp_te.path
  | _ -> Alcotest.fail "expected one tunnel"

(* A reroute that failed against topology generation G is not retried
   until the topology moves past G — backoff loops may call
   reroute_down freely without re-running CSPF against a graph that
   cannot have changed the answer. *)
let test_te_reroute_skips_unchanged_generation () =
  Mvpn_telemetry.Control.enable ();
  Fun.protect ~finally:Mvpn_telemetry.Control.disable @@ fun () ->
  let counter = Mvpn_telemetry.Registry.counter_value in
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  (match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:60.0 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "signal: %s" e);
  (* Sever both ways to node 3: the reroute has nowhere to go. *)
  Topology.set_duplex_state topo n.(1) n.(3) false;
  Topology.set_duplex_state topo n.(2) n.(3) false;
  Alcotest.(check int) "tunnel down" 1 (Rsvp_te.handle_link_failure te);
  let a0 = counter "rsvp.reroute.attempt" in
  let s0 = counter "rsvp.reroute.skipped" in
  let restored, still_down = Rsvp_te.reroute_down te in
  Alcotest.(check (pair int int)) "first try fails" (0, 1)
    (restored, still_down);
  Alcotest.(check int) "one CSPF attempt" (a0 + 1)
    (counter "rsvp.reroute.attempt");
  (* Nothing moved: retries are skipped, not re-signalled. *)
  let restored, still_down = Rsvp_te.reroute_down te in
  Alcotest.(check (pair int int)) "skipped still counts down" (0, 1)
    (restored, still_down);
  let _, _ = Rsvp_te.reroute_down te in
  Alcotest.(check int) "no further attempts" (a0 + 1)
    (counter "rsvp.reroute.attempt");
  Alcotest.(check int) "both retries skipped" (s0 + 2)
    (counter "rsvp.reroute.skipped");
  (* The topology moves: the next call attempts and restores. *)
  Topology.set_duplex_state topo n.(2) n.(3) true;
  let restored, still_down = Rsvp_te.reroute_down te in
  Alcotest.(check (pair int int)) "restored after change" (1, 0)
    (restored, still_down);
  Alcotest.(check int) "one more attempt" (a0 + 2)
    (counter "rsvp.reroute.attempt")

let test_te_explicit_path () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  match
    Rsvp_te.signal te ~explicit_path:[n.(0); n.(2); n.(3)] ~src:n.(0)
      ~dst:n.(3) ~bandwidth:10.0
  with
  | Ok tn ->
    Alcotest.(check (list int)) "operator route honoured" [0; 2; 3]
      tn.Rsvp_te.path
  | Error e -> Alcotest.failf "explicit: %s" e

(* A bad operator route is refused with an [Error], before a tunnel id,
   a reservation or a label moves: a hop with no link, and a route that
   loops back through a node it already crossed. *)
let test_te_explicit_path_checked () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  let refused route =
    match
      Rsvp_te.signal te ~explicit_path:route ~src:n.(0) ~dst:n.(3)
        ~bandwidth:10.0
    with
    | Ok _ -> false
    | Error _ -> true
    | exception Invalid_argument _ -> false
  in
  Alcotest.(check bool) "hop with no link" true (refused [0; 3]);
  Alcotest.(check bool) "looping route" true (refused [0; 1; 0; 1; 3]);
  Alcotest.(check int) "no tunnel" 0 (List.length (Rsvp_te.tunnels te));
  List.iter
    (fun (l : Topology.link) ->
       Alcotest.(check (float 0.0)) "nothing reserved" 0.0 l.Topology.reserved)
    (Topology.links topo);
  Alcotest.(check int) "no label" 0 (Plane.total_labels_allocated plane);
  match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:10.0 with
  | Ok tn -> Alcotest.(check int) "first id still free" 1 tn.Rsvp_te.id
  | Error e -> Alcotest.failf "signal: %s" e

(* Under CSPF admission an operator route is held to the same prune as
   a computed one: 80 of 100 already sits on 0-1-3, so a further 80
   pinned to 0-1-3 is refused before a tunnel id or a label moves, and
   nothing is over-committed. With preemption allowed, a better setup
   priority evicts the occupant from that very route. *)
let test_te_explicit_path_admission () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  let first =
    match
      Rsvp_te.signal te ~explicit_path:[n.(0); n.(1); n.(3)] ~src:n.(0)
        ~dst:n.(3) ~bandwidth:80.0
    with
    | Ok tn -> tn
    | Error e -> Alcotest.failf "first: %s" e
  in
  let labels = Plane.total_labels_allocated plane in
  (match
     Rsvp_te.signal te ~explicit_path:[n.(0); n.(1); n.(3)] ~src:n.(0)
       ~dst:n.(3) ~bandwidth:80.0
   with
   | Ok _ -> Alcotest.fail "an explicit route that does not fit was admitted"
   | Error _ -> ());
  Alcotest.(check int) "no over-commitment" 0
    (List.length (Rsvp_te.overcommitted_links te));
  Alcotest.(check int) "one tunnel" 1 (List.length (Rsvp_te.tunnels te));
  Alcotest.(check int) "no label moved" labels
    (Plane.total_labels_allocated plane);
  match
    Rsvp_te.signal te ~explicit_path:[n.(0); n.(1); n.(3)] ~setup_priority:0
      ~allow_preempt:true ~src:n.(0) ~dst:n.(3) ~bandwidth:80.0
  with
  | Ok tn ->
    Alcotest.(check (list int)) "on the operator route" [0; 1; 3]
      tn.Rsvp_te.path;
    Alcotest.(check bool) "occupant preempted" false first.Rsvp_te.up;
    Alcotest.(check int) "still no over-commitment" 0
      (List.length (Rsvp_te.overcommitted_links te))
  | Error e -> Alcotest.failf "preempting explicit route: %s" e

let test_te_subpool_caps_premium () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  (* Links are 100; premium capped at 40%. *)
  let te = Rsvp_te.create ~subpool_fraction:0.4 topo plane in
  (match
     Rsvp_te.signal te ~class_type:Rsvp_te.Subpool ~src:n.(0) ~dst:n.(3)
       ~bandwidth:30.0
   with
   | Ok tn -> Alcotest.(check (list int)) "short path" [0; 1; 3] tn.Rsvp_te.path
   | Error e -> Alcotest.failf "first premium: %s" e);
  (* A second premium 30 exceeds the 40-unit sub-pool on the short
     path: it must detour even though global capacity remains. *)
  (match
     Rsvp_te.signal te ~class_type:Rsvp_te.Subpool ~src:n.(0) ~dst:n.(3)
       ~bandwidth:30.0
   with
   | Ok tn ->
     Alcotest.(check (list int)) "premium detours" [0; 2; 3] tn.Rsvp_te.path
   | Error e -> Alcotest.failf "second premium: %s" e);
  (* Global-pool traffic still fits on the short path. *)
  (match
     Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:60.0
   with
   | Ok tn ->
     Alcotest.(check (list int)) "global pool unaffected" [0; 1; 3]
       tn.Rsvp_te.path
   | Error e -> Alcotest.failf "global: %s" e);
  match Topology.find_link topo n.(0) n.(1) with
  | Some l ->
    Alcotest.(check (float 1e-9)) "subpool accounted" 30.0
      (Rsvp_te.subpool_reserved te l)
  | None -> Alcotest.fail "link missing"

let test_te_subpool_released_on_teardown () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create ~subpool_fraction:0.4 topo plane in
  match
    Rsvp_te.signal te ~class_type:Rsvp_te.Subpool ~src:n.(0) ~dst:n.(3)
      ~bandwidth:40.0
  with
  | Error e -> Alcotest.failf "signal: %s" e
  | Ok tn ->
    ignore (Rsvp_te.teardown te tn.Rsvp_te.id);
    (match Topology.find_link topo n.(0) n.(1) with
     | Some l ->
       Alcotest.(check (float 1e-9)) "subpool empty" 0.0
         (Rsvp_te.subpool_reserved te l)
     | None -> Alcotest.fail "link missing")

(* Reservation conservation: after random signal/teardown churn, every
   link's reserved bandwidth equals the sum over up tunnels crossing
   it. *)
let te_reservation_conservation =
  QCheck.Test.make ~name:"rsvp-te: link reservations = sum of up tunnels"
    ~count:30
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 5 25) bool))
    (fun (seed, ops) ->
       let topo = Topology.create () in
       let rng = Mvpn_sim.Rng.create (seed + 77) in
       let ids =
         Topology.random_connected topo rng ~n:8 ~extra_links:4
           ~bandwidth:100.0 ~delay:0.001
       in
       let plane = Plane.create ~nodes:(Topology.node_count topo) in
       let te = Rsvp_te.create topo plane in
       let live = ref [] in
       List.iter
         (fun signal_new ->
            if signal_new || !live = [] then begin
              let src = ids.(Mvpn_sim.Rng.int rng 8) in
              let dst = ids.(Mvpn_sim.Rng.int rng 8) in
              if src <> dst then
                match
                  Rsvp_te.signal te ~src ~dst
                    ~bandwidth:(float_of_int (Mvpn_sim.Rng.int_in rng 5 30))
                with
                | Ok tn -> live := tn.Rsvp_te.id :: !live
                | Error _ -> ()
            end
            else begin
              match !live with
              | id :: rest ->
                ignore (Rsvp_te.teardown te id);
                live := rest
              | [] -> ()
            end)
         ops;
       (* Check conservation per link. *)
       let expected = Hashtbl.create 32 in
       List.iter
         (fun tn ->
            if tn.Rsvp_te.up then begin
              let rec pairs = function
                | a :: (b :: _ as rest) -> (a, b) :: pairs rest
                | [_] | [] -> []
              in
              List.iter
                (fun (a, b) ->
                   match Topology.find_link topo a b with
                   | Some l ->
                     let cur =
                       Option.value ~default:0.0
                         (Hashtbl.find_opt expected l.Topology.id)
                     in
                     Hashtbl.replace expected l.Topology.id
                       (cur +. tn.Rsvp_te.bandwidth)
                   | None -> ())
                (pairs tn.Rsvp_te.path)
            end)
         (Rsvp_te.tunnels te);
       List.for_all
         (fun (l : Topology.link) ->
            let want =
              Option.value ~default:0.0
                (Hashtbl.find_opt expected l.Topology.id)
            in
            Float.abs (l.Topology.reserved -. want) < 1e-9)
         (Topology.links topo))

let test_te_labels_walk () =
  let topo, n = te_topo () in
  let plane = Plane.create ~nodes:4 in
  let te = Rsvp_te.create topo plane in
  match Rsvp_te.signal te ~src:n.(0) ~dst:n.(3) ~bandwidth:10.0 with
  | Error e -> Alcotest.failf "signal: %s" e
  | Ok tn ->
    let p =
      Packet.make ~now:0.0 (Flow.make (ip "10.0.0.1") (ip "10.3.0.1"))
    in
    (match Plane.find_ftn plane n.(0) (Rsvp_te.ingress_fec tn) with
     | None -> Alcotest.fail "no ingress entry"
     | Some e ->
       Packet.push_label p ~label:e.Plane.push ~exp:5 ~ttl:64;
       (* Node 1 is penultimate: pops, delivers IP to 3. *)
       (match step (Plane.lfib plane e.Plane.next_hop) p with
        | Ip_continue nh -> Alcotest.(check int) "egress" n.(3) nh
        | _ -> Alcotest.fail "expected php pop at node 1"))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mpls"
    [ ("label",
       [ Alcotest.test_case "constants" `Quick test_label_constants;
         Alcotest.test_case "allocator" `Quick test_label_allocator ]);
      ("fec", [ Alcotest.test_case "compare" `Quick test_fec_compare ]);
      ("lfib",
       [ Alcotest.test_case "install/lookup" `Quick
           test_lfib_install_lookup;
         Alcotest.test_case "rejects reserved" `Quick
           test_lfib_rejects_reserved;
         Alcotest.test_case "step swap" `Quick test_lfib_step_swap;
         Alcotest.test_case "step pop to ip" `Quick test_lfib_step_pop_to_ip;
         Alcotest.test_case "step pop inner remains" `Quick
           test_lfib_step_pop_inner_remains;
         Alcotest.test_case "pop ttl reaches ip header" `Quick
           test_lfib_pop_ttl_reaches_ip_header;
         Alcotest.test_case "pop ttl reaches inner shim" `Quick
           test_lfib_pop_ttl_reaches_inner_shim;
         Alcotest.test_case "pop never raises inner ttl" `Quick
           test_lfib_pop_never_raises_inner_ttl;
         Alcotest.test_case "pop-and-ip ttl" `Quick test_lfib_pop_and_ip_ttl;
         Alcotest.test_case "pop ttl=2 boundary" `Quick
           test_lfib_pop_ttl_boundary;
         Alcotest.test_case "ttl expiry" `Quick test_lfib_step_ttl;
         Alcotest.test_case "no binding" `Quick test_lfib_step_no_binding ]);
      ("ldp",
       [ Alcotest.test_case "end to end php" `Quick test_ldp_end_to_end_php;
         Alcotest.test_case "no php egress pops" `Quick
           test_ldp_no_php_egress_pops;
         Alcotest.test_case "php binding" `Quick
           test_ldp_php_egress_binding_is_implicit_null;
         Alcotest.test_case "refresh after failure" `Quick
           test_ldp_refresh_after_failure;
         Alcotest.test_case "refresh withdraws unreachable" `Quick
           test_ldp_refresh_removes_unreachable;
         Alcotest.test_case "messages and state" `Quick
           test_ldp_messages_and_state;
         qt ldp_lsp_always_reaches_egress;
         qt ldp_splice_consistency;
         Alcotest.test_case "ftn generation tracks refresh" `Quick
           test_plane_ftn_generation_tracks_refresh ]);
      ("cspf",
       [ Alcotest.test_case "avoids reserved" `Quick
           test_cspf_avoids_reserved ]);
      ("rsvp-te",
       [ Alcotest.test_case "signal reserves and installs" `Quick
           test_te_signal_reserves_and_installs;
         Alcotest.test_case "admission refusal" `Quick
           test_te_admission_refusal;
         Alcotest.test_case "igp-only overcommits" `Quick
           test_te_igp_only_overcommits;
         Alcotest.test_case "teardown releases" `Quick
           test_te_teardown_releases;
         Alcotest.test_case "preemption" `Quick test_te_preemption;
         Alcotest.test_case "failure and reroute" `Quick
           test_te_failure_and_reroute;
         Alcotest.test_case "reroute skips unchanged generation" `Quick
           test_te_reroute_skips_unchanged_generation;
         Alcotest.test_case "explicit path" `Quick test_te_explicit_path;
         Alcotest.test_case "explicit path checked first" `Quick
           test_te_explicit_path_checked;
         Alcotest.test_case "explicit path admission" `Quick
           test_te_explicit_path_admission;
         Alcotest.test_case "ds-te subpool caps premium" `Quick
           test_te_subpool_caps_premium;
         Alcotest.test_case "ds-te subpool released" `Quick
           test_te_subpool_released_on_teardown;
         qt te_reservation_conservation;
         Alcotest.test_case "labels walk" `Quick test_te_labels_walk ]) ]
