open Mvpn_provision
module Mpbgp = Mvpn_routing.Mpbgp
module Membership = Mvpn_core.Membership
module Mpls_vpn = Mvpn_core.Mpls_vpn

let gsid ~customer ~sid = Service.global_site_id ~customer ~sid

let site sid pe role = { Service.sid; pe; role }

let cust id topology tier sites =
  { Service.id; name = Printf.sprintf "c%d" id; topology; tier; sites }

let table_sites t ~pe ~customer ~role =
  List.sort compare
    (List.map
       (fun (r : Mpbgp.vpnv4_route) -> r.Mpbgp.site)
       (Compile.vrf_table t ~pe ~customer ~role))

(* --- Service.Pool -------------------------------------------------------- *)

let test_pool_idempotent_and_distinct () =
  let p = Service.Pool.create () in
  let rd1 = Service.Pool.rd p ~customer:1 in
  Alcotest.(check bool) "rd memoized" true (rd1 = Service.Pool.rd p ~customer:1);
  let rts =
    [ Service.Pool.rt_any p ~customer:1; Service.Pool.rt_hub p ~customer:1;
      Service.Pool.rt_spoke p ~customer:1; Service.Pool.rt_any p ~customer:2;
      Service.Pool.rt_extranet p ~group:3 ]
  in
  let values =
    List.sort_uniq compare (List.map (fun r -> r.Mpbgp.rt_value) rts)
  in
  Alcotest.(check int) "all RT values distinct" (List.length rts)
    (List.length values);
  Alcotest.(check bool) "extranet RT shared" true
    (Service.Pool.rt_extranet p ~group:3
     = Service.Pool.rt_extranet p ~group:3);
  Alcotest.(check int) "rd ledger" 1 (Service.Pool.rds_allocated p);
  Alcotest.(check int) "rt ledger" 5 (Service.Pool.rts_allocated p)

let test_pure_identifiers () =
  let g = gsid ~customer:3 ~sid:7 in
  Alcotest.(check int) "global site id" ((3 lsl 16) lor 7) g;
  Alcotest.(check int) "label is a pure function" (16 + g)
    (Service.vpn_label_of_site g)

(* The arithmetic identifiers must keep the formatted forms they
   replaced, and the same range checks. *)
let test_identifiers_match_printf () =
  for sid = 0 to 0xffff do
    let want =
      Mvpn_net.Prefix.of_string_exn
        (Printf.sprintf "10.%d.%d.0/24" (sid lsr 8) (sid land 0xff))
    in
    if Service.site_prefix ~sid <> want then
      Alcotest.failf "site_prefix %d" sid
  done;
  List.iter
    (fun sid ->
       match Service.site_prefix ~sid with
       | _ -> Alcotest.failf "site_prefix %d accepted" sid
       | exception Invalid_argument _ -> ())
    [ -1; 0x10000 ];
  List.iter
    (fun (customer, sid) ->
       Alcotest.(check string)
         (Printf.sprintf "site_name %d %d" customer sid)
         (Printf.sprintf "c%d-s%d" customer sid)
         (Service.site_name ~customer ~sid))
    [ (1, 0); (1, 1); (9, 10); (42, 255); (999, 256); (0x3fff, 0xffff);
      (12345, 7); (0, 0); (-3, -1); (-10, 100); (min_int, max_int);
      (max_int, min_int) ]

(* --- generator determinism (Rng.split substream hygiene) ----------------- *)

let test_generator_order_independence () =
  let p = Portfolio.generate ~pe_count:8 ~seed:42 ~customers:20 () in
  (* Regenerating each customer alone, in reverse order, must reproduce
     the portfolio byte for byte: customer [id] depends only on
     (seed, id), never on who was generated before it. *)
  List.iter
    (fun id ->
       let c =
         Portfolio.generate_customer ~pe_count:8 ~seed:42 ~id ()
       in
       Alcotest.(check bool)
         (Printf.sprintf "customer %d reproducible out of order" id)
         true
         (c = p.Portfolio.customers.(id - 1)))
    (List.rev (List.init 20 (fun i -> i + 1)));
  let p' = Portfolio.generate ~pe_count:8 ~seed:42 ~customers:20 () in
  Alcotest.(check bool) "portfolio replay identical" true
    (p.Portfolio.customers = p'.Portfolio.customers)

let test_churn_replay_deterministic () =
  let p = Portfolio.generate ~pe_count:6 ~seed:7 ~customers:12 () in
  let ops1 = Portfolio.churn p ~seed:99 ~ops:40 in
  let ops2 = Portfolio.churn p ~seed:99 ~ops:40 in
  Alcotest.(check bool) "same ops" true (ops1 = ops2);
  let ops3 = Portfolio.churn p ~seed:100 ~ops:40 in
  Alcotest.(check bool) "different seed diverges" true (ops1 <> ops3)

(* --- topology-class semantics -------------------------------------------- *)

let test_hub_spoke_tables () =
  let c =
    cust 1 Service.Hub_spoke Service.Gold
      [ site 0 0 Service.Hub; site 1 1 Service.Spoke; site 2 2 Service.Spoke;
        site 3 1 Service.Spoke ]
  in
  let p = Portfolio.of_customers ~pe_count:3 ~seed:0 [ c ] in
  let t = Compile.compile p in
  let hub = gsid ~customer:1 ~sid:0 in
  (* Spokes see only the hub; spoke-to-spoke reachability must transit
     it. The hub sees every spoke. *)
  Alcotest.(check (list int)) "spoke VRF on pe1" [ hub ]
    (table_sites t ~pe:1 ~customer:1 ~role:Service.Spoke);
  Alcotest.(check (list int)) "spoke VRF on pe2" [ hub ]
    (table_sites t ~pe:2 ~customer:1 ~role:Service.Spoke);
  Alcotest.(check (list int)) "hub VRF sees all spokes"
    [ gsid ~customer:1 ~sid:1; gsid ~customer:1 ~sid:2;
      gsid ~customer:1 ~sid:3 ]
    (table_sites t ~pe:0 ~customer:1 ~role:Service.Hub)

(* A VRF's locals read in ascending site order, whether the bulk compile
   added them or the incremental path spliced one in below, above or
   between the others. *)
let test_vrf_locals_ascending () =
  let c =
    cust 1 Service.Any_to_any Service.Silver
      [ site 0 0 Service.Spoke; site 1 1 Service.Spoke;
        site 2 0 Service.Spoke; site 4 0 Service.Spoke ]
  in
  let t = Compile.compile (Portfolio.of_customers ~pe_count:2 ~seed:0 [ c ]) in
  let locals () =
    Compile.vrf_locals t ~pe:0 ~customer:1 ~role:Service.Spoke
  in
  let g sids = List.map (fun sid -> gsid ~customer:1 ~sid) sids in
  Alcotest.(check (list int)) "bulk" (g [ 0; 2; 4 ]) (locals ());
  ignore (Compile.provision_site t ~customer:1 ~sid:3 ~pe:0);
  ignore (Compile.provision_site t ~customer:1 ~sid:9 ~pe:0);
  Alcotest.(check (list int)) "spliced" (g [ 0; 2; 3; 4; 9 ]) (locals ());
  ignore (Compile.decommission_site t ~customer:1 ~sid:0);
  Alcotest.(check (list int)) "removed" (g [ 2; 3; 4; 9 ]) (locals ())

let test_any_to_any_tables () =
  let c =
    cust 1 Service.Any_to_any Service.Silver
      [ site 0 0 Service.Spoke; site 1 1 Service.Spoke;
        site 2 2 Service.Spoke ]
  in
  let p = Portfolio.of_customers ~pe_count:3 ~seed:0 [ c ] in
  let t = Compile.compile p in
  (* Every VRF sees every remote site of its own VPN — and not its own
     locals, whose next hop is the VRF's PE. *)
  Alcotest.(check (list int)) "pe0 sees 1 and 2"
    [ gsid ~customer:1 ~sid:1; gsid ~customer:1 ~sid:2 ]
    (table_sites t ~pe:0 ~customer:1 ~role:Service.Spoke);
  Alcotest.(check (list int)) "pe2 sees 0 and 1"
    [ gsid ~customer:1 ~sid:0; gsid ~customer:1 ~sid:1 ]
    (table_sites t ~pe:2 ~customer:1 ~role:Service.Spoke)

let test_extranet_cross_customer_visibility () =
  let partners g =
    [ cust 1 (Service.Extranet g) Service.Gold
        [ site 0 0 Service.Spoke; site 1 1 Service.Spoke ];
      cust 2 (Service.Extranet g) Service.Bronze [ site 0 2 Service.Spoke ];
      cust 3 Service.Any_to_any Service.Silver
        [ site 0 0 Service.Spoke; site 1 2 Service.Spoke ] ]
  in
  let p = Portfolio.of_customers ~pe_count:3 ~seed:0 (partners 5) in
  let t = Compile.compile p in
  (* Extranet partners reach each other across customer boundaries... *)
  Alcotest.(check (list int)) "c1 pe0 sees its own remote and c2"
    [ gsid ~customer:1 ~sid:1; gsid ~customer:2 ~sid:0 ]
    (table_sites t ~pe:0 ~customer:1 ~role:Service.Spoke);
  Alcotest.(check (list int)) "c2 sees both c1 sites"
    [ gsid ~customer:1 ~sid:0; gsid ~customer:1 ~sid:1 ]
    (table_sites t ~pe:2 ~customer:2 ~role:Service.Spoke);
  (* ...while the plain any-to-any bystander is isolated from them. *)
  Alcotest.(check (list int)) "c3 sees only c3"
    [ gsid ~customer:3 ~sid:1 ]
    (table_sites t ~pe:0 ~customer:3 ~role:Service.Spoke)

let test_qos_policy_follows_tier () =
  let p =
    Portfolio.of_customers ~pe_count:2 ~seed:0
      [ cust 1 Service.Any_to_any Service.Gold [ site 0 0 Service.Spoke ];
        cust 2 Service.Any_to_any Service.Bronze [ site 0 1 Service.Spoke ] ]
  in
  let t = Compile.compile p in
  let band c = fst (Compile.qos_policy t ~customer:c) in
  Alcotest.(check int) "gold rides band 0" 0 (band 1);
  Alcotest.(check int) "bronze rides band 2" 2 (band 2);
  ignore (Delta.apply t (Portfolio.Change_tier { customer = 2; tier = Service.Gold }));
  Alcotest.(check int) "retier flips the band" 0 (band 2)

(* --- incremental vs oracle ----------------------------------------------- *)

let test_delta_converges_to_oracle () =
  let p = Portfolio.generate ~pe_count:6 ~seed:21 ~customers:40 () in
  let t = Compile.compile p in
  let ops = Portfolio.churn p ~seed:22 ~ops:60 in
  let st = Delta.apply_all t ops in
  Alcotest.(check int) "op count" 60 st.Delta.ops;
  let oracle = Delta.oracle p ops in
  Alcotest.(check bool) "fingerprints converge" true (Delta.validate t oracle);
  Alcotest.(check string) "fingerprint is the canonical digest"
    (Compile.fingerprint oracle) (Compile.fingerprint t)

let test_delta_converges_under_route_reflector () =
  let p = Portfolio.generate ~pe_count:5 ~seed:31 ~customers:25 () in
  let mode = Mpbgp.Route_reflector 0 in
  let t = Compile.compile ~mode p in
  let ops = Portfolio.churn p ~seed:32 ~ops:40 in
  ignore (Delta.apply_all t ops);
  Alcotest.(check bool) "RR mode converges too" true
    (Delta.validate t (Delta.oracle ~mode p ops))

(* Churn a small uniform portfolio and compare against the oracle;
   triples are (customers, ops, seed). *)
let converges (customers, ops, seed) =
  let p =
    Portfolio.generate ~dist:Portfolio.Uniform ~pe_count:4 ~seed ~customers ()
  in
  let t = Compile.compile p in
  let ops = Portfolio.churn p ~seed:(seed + 1000) ~ops in
  ignore (Delta.apply_all t ops);
  Delta.validate t (Delta.oracle p ops)

(* A delta that creates a route group — a role's first VRF after its
   last site left, or the first spoke or hub ever — must bring in every
   route already exported with the group's import RTs, and arm the LSPs
   toward them. At (1, 5, 97) the only spoke leaves, then spokes come
   back at pe0 and pe2 and must see the hub route again. *)
let test_recreated_group_converges triple () =
  Alcotest.(check bool) "incremental state equals the oracle" true
    (converges triple)

let prop_random_interleavings_converge =
  QCheck.Test.make ~name:"random delta interleavings converge to the oracle"
    ~count:40
    QCheck.(triple (int_range 1 8) (int_range 0 25) small_int)
    converges

(* --- bulk compile vs one site at a time ------------------------------------ *)

(* An independent referee for the bulk path: the same customers compiled
   with no sites, then every site provisioned one by one in portfolio
   order. The incremental splice shares no code with the bulk group
   fill, LSP pass or back-fill-free propagation round, so a bug in one
   shows as a different fingerprint or metric. Control messages differ
   by design (one BGP round per site), so they are not compared. *)
let topology_of code group =
  match code with
  | 0 -> Service.Any_to_any
  | 1 -> Service.Hub_spoke
  | _ -> Service.Extranet group

let referee_portfolio ~uniform ~pe_count ~seed topologies =
  let dist = if uniform then Portfolio.Uniform else Portfolio.Pareto in
  let customers =
    List.mapi
      (fun i (code, group) ->
         let id = i + 1 in
         let c =
           Portfolio.generate_customer ~dist ~pe_count ~max_sites:24 ~seed ~id
             ()
         in
         let topology = topology_of code group in
         { c with
           Service.topology;
           sites =
             List.map
               (fun (s : Service.site_spec) ->
                  { s with
                    Service.role =
                      Service.default_role topology ~sid:s.Service.sid })
               c.Service.sites })
      topologies
  in
  Portfolio.of_customers ~dist ~pe_count ~seed customers

let prop_bulk_equals_one_by_one =
  QCheck.Test.make ~name:"bulk compile equals provisioning site by site"
    ~count:60
    QCheck.(
      pair
        (quad bool bool (int_range 1 8) small_int)
        (list_of_size Gen.(int_range 1 12)
           (pair (int_range 0 2) (int_range 0 2))))
    (fun ((uniform, rr, pe_count, seed), topologies) ->
       let mode = if rr then Mpbgp.Route_reflector 0 else Mpbgp.Full_mesh in
       let p = referee_portfolio ~uniform ~pe_count ~seed topologies in
       let bulk = Compile.compile ~mode p in
       let empty =
         Portfolio.of_customers ~pe_count ~seed
           (List.map
              (fun (c : Service.customer) -> { c with Service.sites = [] })
              (Array.to_list p.Portfolio.customers))
       in
       let one = Compile.compile ~mode empty in
       Array.iter
         (fun (c : Service.customer) ->
            List.iter
              (fun (s : Service.site_spec) ->
                 ignore
                   (Compile.provision_site one ~customer:c.Service.id
                      ~sid:s.Service.sid ~pe:s.Service.pe))
              c.Service.sites)
         p.Portfolio.customers;
       let quiet m = { m with Compile.control_messages = 0 } in
       Compile.fingerprint bulk = Compile.fingerprint one
       && quiet (Compile.metrics bulk) = quiet (Compile.metrics one))

(* --- state accounting ----------------------------------------------------- *)

let test_metrics_accounting () =
  let p = Portfolio.generate ~pe_count:6 ~seed:4 ~customers:30 () in
  let t = Compile.compile p in
  let m = Compile.metrics t in
  Alcotest.(check int) "one route per site" m.Compile.sites m.Compile.routes;
  Alcotest.(check int) "per-PE sites sum to the portfolio"
    m.Compile.sites
    (Array.fold_left (fun a (s, _) -> a + s) 0 (Compile.per_pe t));
  Alcotest.(check bool) "sharing never exceeds the logical view" true
    (m.Compile.shared_entries <= m.Compile.table_entries);
  Alcotest.(check int) "customers per band sum up"
    m.Compile.customers
    (Array.fold_left ( + ) 0 m.Compile.bands)

let test_materialize_agrees_with_compile () =
  (* Mpls_vpn provisions one any-to-any RT per VPN, so the deployable
     reference and the design compiler must count the same state on an
     any-to-any-only portfolio. *)
  let customers =
    List.init 5 (fun i ->
        cust (i + 1) Service.Any_to_any Service.Silver
          (List.init (2 + i) (fun sid -> site sid (sid mod 4) Service.Spoke)))
  in
  let p = Portfolio.of_customers ~pe_count:4 ~seed:0 customers in
  let t = Compile.compile p in
  let m = Compile.metrics t in
  let d = Compile.materialize p in
  let dm = Mpls_vpn.metrics d.Compile.mpls in
  Alcotest.(check int) "same sites" m.Compile.sites dm.Mpls_vpn.sites;
  Alcotest.(check int) "same VPNv4 announcements" m.Compile.routes
    dm.Mpls_vpn.vpnv4_routes;
  Alcotest.(check int) "same VRF count" m.Compile.vrfs dm.Mpls_vpn.vrf_count

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "provision"
    [ ("service",
       [ Alcotest.test_case "pool idempotent, distinct" `Quick
           test_pool_idempotent_and_distinct;
         Alcotest.test_case "pure identifiers" `Quick test_pure_identifiers;
         Alcotest.test_case "identifiers match printf" `Quick
           test_identifiers_match_printf ]);
      ("portfolio",
       [ Alcotest.test_case "generator order independence" `Quick
           test_generator_order_independence;
         Alcotest.test_case "churn replay deterministic" `Quick
           test_churn_replay_deterministic ]);
      ("compile",
       [ Alcotest.test_case "hub-spoke tables" `Quick test_hub_spoke_tables;
         Alcotest.test_case "any-to-any tables" `Quick
           test_any_to_any_tables;
         Alcotest.test_case "vrf locals ascending" `Quick
           test_vrf_locals_ascending;
         Alcotest.test_case "extranet visibility" `Quick
           test_extranet_cross_customer_visibility;
         Alcotest.test_case "qos policy follows tier" `Quick
           test_qos_policy_follows_tier;
         Alcotest.test_case "metrics accounting" `Quick
           test_metrics_accounting;
         Alcotest.test_case "materialize agreement" `Quick
           test_materialize_agrees_with_compile;
         qt prop_bulk_equals_one_by_one ]);
      ("delta",
       [ Alcotest.test_case "converges to oracle" `Quick
           test_delta_converges_to_oracle;
         Alcotest.test_case "converges under RR" `Quick
           test_delta_converges_under_route_reflector;
         Alcotest.test_case "recreated group converges (1,5,97)" `Quick
           (test_recreated_group_converges (1, 5, 97));
         Alcotest.test_case "recreated group converges (4,8,9)" `Quick
           (test_recreated_group_converges (4, 8, 9));
         qt prop_random_interleavings_converge ]) ]
