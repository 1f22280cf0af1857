(* Resilience: fast reroute, IP fallback, backoff recovery, chaos.

   The acceptance properties of the chaos work live here:
   - a link failure under facility backup switches the same tick, with
     (next to) no loss and no silent drops;
   - a control-plane session loss degrades to accounted IP fallback and
     logs the LSP restoration;
   - a flap storm damps the link after K flaps with at most one
     re-signal burst;
   - a seeded chaos run is deterministic fault-for-fault and
     fate-for-fate;
   - under any seeded storm, FRR delivery is a superset of no-FRR
     delivery, and every undelivered packet lands in exactly one
     drop counter (qcheck). *)

open Mvpn_core
module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Flow = Mvpn_net.Flow
module Packet = Mvpn_net.Packet
module Prefix = Mvpn_net.Prefix
module Dscp = Mvpn_net.Dscp
module Plane = Mvpn_mpls.Plane
module Port = Mvpn_qos.Port
module Frr = Mvpn_resilience.Frr
module Chaos = Mvpn_resilience.Chaos
module Recovery = Mvpn_resilience.Recovery
module Harness = Mvpn_resilience.Harness
module Runner = Mvpn_par.Runner
module T = Mvpn_telemetry

let cv = T.Registry.counter_value

let with_telemetry f () =
  T.Control.enable ();
  Fun.protect ~finally:T.Control.disable f

(* --- a two-site rig on the 6-POP ring ---------------------------------- *)

type rig = {
  bb : Backbone.t;
  engine : Engine.t;
  net : Network.t;
  vpn : Mpls_vpn.t;
  a : Site.t;
  b : Site.t;
  registry : Traffic.registry;
  delivered : (int, unit) Hashtbl.t;  (* uid -> () at b's CE *)
}

let build_rig () =
  Packet.reset_uid_counter ();
  let bb = Backbone.build ~pops:6 ~chords:[] () in
  let a =
    Backbone.attach_site bb ~id:1 ~name:"a" ~vpn:1
      ~prefix:(Prefix.of_string_exn "10.0.0.0/16") ~pop:0
  in
  let b =
    Backbone.attach_site bb ~id:2 ~name:"b" ~vpn:1
      ~prefix:(Prefix.of_string_exn "10.1.0.0/16") ~pop:2
  in
  let engine = Engine.create () in
  let net = Network.create engine (Backbone.topology bb) in
  let vpn = Mpls_vpn.deploy ~net ~backbone:bb ~sites:[a; b] () in
  let registry = Traffic.registry engine in
  let delivered = Hashtbl.create 512 in
  Network.set_sink net b.Site.ce_node (fun p ->
      Hashtbl.replace delivered p.Packet.uid ();
      Traffic.sink registry p);
  { bb; engine; net; vpn; a; b; registry; delivered }

let voice r ~stop =
  let emit =
    Traffic.sender r.registry ~net:r.net ~src_node:r.a.Site.ce_node
      ~flow:(Flow.make ~proto:Flow.Udp ~dst_port:5060 (Site.host r.a 1)
               (Site.host r.b 1))
      ~dscp:Dscp.ef ~vpn:1
      ~collector:(Traffic.collector r.registry "voice")
      ()
  in
  Traffic.cbr r.engine ~start:0.0 ~stop ~rate_bps:80_000.0 ~packet_bytes:200
    emit

let core_directed bb =
  let is_pop v = Backbone.pop_of_node bb v <> None in
  List.filter_map
    (fun (l : Topology.link) ->
       if is_pop l.Topology.src && is_pop l.Topology.dst then
         Some (l.Topology.src, l.Topology.dst)
       else None)
    (Topology.links (Backbone.topology bb))

let core_duplex bb =
  List.filter (fun (x, y) -> x < y) (core_directed bb)

let port_drops r =
  List.fold_left
    (fun acc (l : Topology.link) ->
       let c = Port.counters (Network.port r.net ~link_id:l.Topology.id) in
       acc + c.Port.dropped_queue + c.Port.dropped_link_down
       + c.Port.dropped_fault)
    0
    (Topology.links (Backbone.topology r.bb))

let net_drops r =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (Network.drop_counts r.net)

(* Every sent packet ends delivered or in exactly one drop counter. *)
let check_accounting ?(msg = "accounting") r =
  let sent = (Traffic.report r.registry "voice").Mvpn_qos.Sla.sent in
  Alcotest.(check int) msg sent
    (Hashtbl.length r.delivered + port_drops r + net_drops r)

(* --- FRR: same-tick switchover ----------------------------------------- *)

let test_frr_switchover () =
  let r = build_rig () in
  let f = Frr.arm ~links:(core_directed r.bb) r.net in
  let s = Frr.stats f in
  Alcotest.(check int) "every core link protected" 0
    s.Frr.unprotected_links;
  let switched0 = cv "resilience.frr.switched" in
  voice r ~stop:10.0;
  let pops = Backbone.pops r.bb in
  (* Kill the link under the LSP mid-run; nobody reconverges. *)
  Engine.schedule_at r.engine ~time:5.0 (fun () ->
      Topology.set_duplex_state (Network.topology r.net) pops.(0) pops.(1)
        false);
  Engine.run r.engine;
  let rep = Traffic.report r.registry "voice" in
  Alcotest.(check bool) "bypass carries the stream" true
    (rep.Mvpn_qos.Sla.sent - rep.Mvpn_qos.Sla.received <= 3);
  Alcotest.(check bool) "switchovers counted" true
    (cv "resilience.frr.switched" - switched0 > 100);
  Alcotest.(check int) "one switchover event this episode" 1
    (T.Event_log.count_kind (T.Registry.events ()) "frr_switchover");
  check_accounting r

(* A node added after arming (a site attached to a POP) does not stop a
   rearm: the bypass buffers follow the topology's size, and the core
   links keep their protection. *)
let test_frr_rearm_after_node_added () =
  let r = build_rig () in
  let f = Frr.arm ~links:(core_directed r.bb) r.net in
  let before = Frr.stats f in
  ignore
    (Backbone.attach_site r.bb ~id:3 ~name:"c" ~vpn:1
       ~prefix:(Prefix.of_string_exn "10.2.0.0/16") ~pop:4);
  Frr.rearm f;
  let after = Frr.stats f in
  Alcotest.(check int) "protected links kept" before.Frr.protected_links
    after.Frr.protected_links;
  Alcotest.(check int) "no link lost its bypass" 0 after.Frr.unprotected_links

(* --- fallback: session loss degrades to IP, restoration logged --------- *)

let test_fallback_and_restore () =
  let r = build_rig () in
  Mpls_vpn.set_ip_fallback r.vpn true;
  let fb0 = cv "resilience.fallback.packets" in
  let rs0 = cv "resilience.fallback.restored" in
  voice r ~stop:10.0;
  let pops = Backbone.pops r.bb in
  (* LDP/BGP session loss at the ingress PE: label bindings vanish. *)
  Engine.schedule_at r.engine ~time:5.0 (fun () ->
      Plane.clear_ftn (Network.plane r.net) pops.(0));
  Engine.schedule_at r.engine ~time:7.0 (fun () ->
      ignore (Mpls_vpn.reconverge r.vpn));
  Engine.run r.engine;
  let rep = Traffic.report r.registry "voice" in
  Alcotest.(check int) "nothing lost: fallback carried the gap"
    rep.Mvpn_qos.Sla.sent rep.Mvpn_qos.Sla.received;
  Alcotest.(check bool) "fallback packets counted" true
    (cv "resilience.fallback.packets" - fb0 > 50);
  Alcotest.(check int) "restoration counted" 1
    (cv "resilience.fallback.restored" - rs0);
  check_accounting r

let test_fallback_off_drops_accounted () =
  let r = build_rig () in
  voice r ~stop:8.0;
  let pops = Backbone.pops r.bb in
  Engine.schedule_at r.engine ~time:4.0 (fun () ->
      Plane.clear_ftn (Network.plane r.net) pops.(0));
  Engine.run r.engine;
  let rep = Traffic.report r.registry "voice" in
  Alcotest.(check bool) "loss without fallback" true
    (rep.Mvpn_qos.Sla.received < rep.Mvpn_qos.Sla.sent);
  check_accounting r ~msg:"never silent"

(* --- flap damping: a storm earns at most one burst --------------------- *)

let test_flap_storm_damps () =
  let r = build_rig () in
  let bursts = ref 0 in
  let rec_t =
    Recovery.arm ~seed:5 r.net ~repair:(fun () ->
        incr bursts;
        ignore (Mpls_vpn.reconverge r.vpn);
        let down =
          List.length
            (List.filter
               (fun (l : Topology.link) ->
                  (not l.Topology.up) && l.Topology.src < l.Topology.dst)
               (Topology.links (Network.topology r.net)))
        in
        (0, down))
  in
  let damped0 = cv "resilience.recovery.damped" in
  let supp0 = cv "resilience.recovery.suppressed" in
  voice r ~stop:10.0;
  let pops = Backbone.pops r.bb in
  let topo = Network.topology r.net in
  (* Six downs in 120 ms — well past 5-in-2s — then it stays down. *)
  for i = 0 to 5 do
    let at = 5.0 +. (0.02 *. float_of_int i) in
    Engine.schedule_at r.engine ~time:at (fun () ->
        Topology.set_duplex_state topo pops.(0) pops.(1) false);
    if i < 5 then
      Engine.schedule_at r.engine ~time:(at +. 0.01) (fun () ->
          Topology.set_duplex_state topo pops.(0) pops.(1) true)
  done;
  Engine.run r.engine;
  Alcotest.(check bool) "at most one re-signal burst" true (!bursts <= 1);
  Alcotest.(check int) "link damped" 1
    (cv "resilience.recovery.damped" - damped0);
  Alcotest.(check bool) "damped query" true
    (Recovery.damped rec_t pops.(0) pops.(1));
  Alcotest.(check bool) "pending burst suppressed, not fired" true
    (cv "resilience.recovery.suppressed" - supp0 >= 1);
  Alcotest.(check int) "typed damping event" 1
    (T.Event_log.count_kind (T.Registry.events ()) "flap_damped");
  check_accounting r ~msg:"zero unaccounted drops under the storm"

(* A damped link that holds up is released and repair resumes. *)
let test_flap_release_after_hold () =
  let r = build_rig () in
  let rec_t =
    Recovery.arm ~seed:9 r.net ~repair:(fun () ->
        ignore (Mpls_vpn.reconverge r.vpn);
        (0, 0))
  in
  let rel0 = cv "resilience.recovery.released" in
  let pops = Backbone.pops r.bb in
  let topo = Network.topology r.net in
  for i = 0 to 4 do
    let at = 1.0 +. (0.02 *. float_of_int i) in
    Engine.schedule_at r.engine ~time:at (fun () ->
        Topology.set_duplex_state topo pops.(0) pops.(1) false);
    Engine.schedule_at r.engine ~time:(at +. 0.01) (fun () ->
        Topology.set_duplex_state topo pops.(0) pops.(1) true)
  done;
  Engine.run r.engine;
  Alcotest.(check bool) "released after holding up" true
    (cv "resilience.recovery.released" - rel0 >= 1);
  Alcotest.(check bool) "no longer damped" false
    (Recovery.damped rec_t pops.(0) pops.(1));
  Alcotest.(check int) "typed release event" 1
    (T.Event_log.count_kind (T.Registry.events ()) "flap_released")

(* --- chaos: same seed, same faults, same fates ------------------------- *)

let chaos_fates seed =
  Packet.reset_uid_counter ();
  let d0 = cv "net.delivered" in
  let sc =
    Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:2 ~seed
      (Scenario.Mpls_deployment
         { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
           use_te = false })
  in
  let h =
    Harness.arm ~events:8 ~frr:true ~fallback:true ~seed ~duration:5.0 sc
  in
  Scenario.add_mixed_workload ~load:0.5 sc
    ~pairs:(Scenario.default_pairs sc) ~duration:5.0;
  Scenario.run sc ~duration:10.0;
  let net = Scenario.network (Harness.scenario h) in
  ( T.Json.to_string (Chaos.plan_json (Harness.plan h)),
    cv "net.delivered" - d0,
    Harness.port_totals h,
    Network.drop_counts net )

let test_chaos_deterministic () =
  let p1, d1, t1, dr1 = chaos_fates 42 in
  let p2, d2, t2, dr2 = chaos_fates 42 in
  Alcotest.(check string) "same plan" p1 p2;
  Alcotest.(check int) "same deliveries" d1 d2;
  Alcotest.(check bool) "same port fates" true (t1 = t2);
  Alcotest.(check (list (pair string int))) "same drop table" dr1 dr2;
  let p3, _, _, _ = chaos_fates 43 in
  Alcotest.(check bool) "different seed, different plan" true (p1 <> p3)

(* --- qcheck: FRR delivery is a superset, every loss accounted ---------- *)

(* One seeded storm (link faults only), one voice stream, FRR on or
   off; packet uids align across regimes because generation is
   identical and fault verdicts are stateless hashes of uid. *)
let storm_run ~frr seed =
  Packet.reset_uid_counter ();
  let r = build_rig () in
  let f =
    if frr then Some (Frr.arm ~links:(core_directed r.bb) r.net) else None
  in
  ignore
    (Recovery.arm ~seed:((seed * 3) + 1) r.net ~repair:(fun () ->
         ignore (Mpls_vpn.reconverge r.vpn);
         (match f with Some f -> Frr.rearm f | None -> ());
         let down =
           List.length
             (List.filter
                (fun (l : Topology.link) ->
                   (not l.Topology.up) && l.Topology.src < l.Topology.dst)
                (Topology.links (Network.topology r.net)))
         in
         (0, down)));
  let plan =
    Chaos.random_plan ~events:6 ~rng:(Rng.create seed)
      ~links:(core_duplex r.bb) ~duration:6.0 ()
  in
  Chaos.schedule r.net plan;
  voice r ~stop:6.0;
  Engine.run r.engine;
  let sent = (Traffic.report r.registry "voice").Mvpn_qos.Sla.sent in
  let accounted =
    Hashtbl.length r.delivered + port_drops r + net_drops r
  in
  (r.delivered, sent, accounted)

let superset_property =
  QCheck.Test.make ~count:6 ~name:"chaos: frr delivery superset + accounted"
    QCheck.(int_range 0 1000)
    (fun seed ->
       let base, base_sent, base_acct = storm_run ~frr:false seed in
       let with_frr, frr_sent, frr_acct = storm_run ~frr:true seed in
       let subset =
         Hashtbl.fold
           (fun uid () ok -> ok && Hashtbl.mem with_frr uid)
           base true
       in
       if not subset then
         QCheck.Test.fail_report "a packet delivered without FRR was lost \
                                  with it";
       if base_sent <> base_acct || frr_sent <> frr_acct then
         QCheck.Test.fail_reportf
           "unaccounted drops: base %d/%d, frr %d/%d" base_acct base_sent
           frr_acct frr_sent;
       true)

(* --- chaos plan JSON round-trip ---------------------------------------- *)

(* Mantissa-rich floats (quotients of awkward integers) so the property
   actually exercises the lossless %.17g fallback, not just short
   decimals. *)
let fault_gen =
  let open QCheck.Gen in
  let t =
    map2
      (fun a b -> float_of_int a /. (1.0 +. float_of_int b))
      (int_range 0 100000) (int_range 0 997)
  in
  let frac = map (fun n -> float_of_int n /. 977.0) (int_range 0 977) in
  let node = int_range 0 31 in
  oneof
    [ map3
        (fun (a, b) at hold -> Chaos.Link_flap { a; b; at; hold })
        (pair node node) t t;
      map3 (fun node at hold -> Chaos.Node_down { node; at; hold }) node t t;
      map3
        (fun (a, b) at (duration, loss) ->
           Chaos.Loss_burst { a; b; at; duration; loss })
        (pair node node) t (pair t frac);
      map3
        (fun (a, b) at (duration, corrupt) ->
           Chaos.Corrupt_burst { a; b; at; duration; corrupt })
        (pair node node) t (pair t frac);
      map2 (fun node at -> Chaos.Session_drop { node; at }) node t ]

let plan_string plan = T.Json.to_string (Chaos.plan_json plan)

let plan_roundtrip_property =
  QCheck.Test.make ~count:200 ~name:"chaos: plan -> json -> plan is identity"
    (QCheck.make ~print:plan_string
       QCheck.Gen.(list_size (int_range 0 10) fault_gen))
    (fun plan -> Chaos.plan_of_json (plan_string plan) = plan)

(* Chaos plans arrive from outside (a saved [mvpn chaos --json] plan), so
   the decoder is fuzzed: byte flips, truncations, and faults with a
   field dropped, renamed or retyped. Each input must decode to a plan
   or raise the documented [Failure], never anything else. *)
let mutated_plan_gen =
  let open QCheck.Gen in
  let edit_field plan fi ki op =
    let fault i = function
      | T.Json.Obj fields when i = fi ->
        let k = ki mod List.length fields in
        T.Json.Obj
          (List.concat
             (List.mapi
                (fun j (key, v) ->
                   if j <> k then [ (key, v) ]
                   else
                     match op with
                     | `Drop -> []
                     | `Rename -> [ (key ^ "_", v) ]
                     | `Retype -> [ (key, T.Json.String "x") ])
                fields))
      | f -> f
    in
    match Chaos.plan_json plan with
    | T.Json.List faults ->
      T.Json.to_string (T.Json.List (List.mapi fault faults))
    | _ -> assert false
  in
  list_size (int_range 1 6) fault_gen >>= fun plan ->
  let text = plan_string plan in
  let n = String.length text in
  oneof
    [ map2
        (fun i c -> String.mapi (fun j d -> if j = i then c else d) text)
        (int_bound (n - 1)) char;
      map (fun k -> String.sub text 0 k) (int_bound n);
      map3 (edit_field plan)
        (int_bound (List.length plan - 1))
        (int_bound 5)
        (oneofl [ `Drop; `Rename; `Retype ]) ]

let plan_fuzz_property =
  QCheck.Test.make ~count:1000
    ~name:"chaos: mutated plan json decodes or fails cleanly"
    (QCheck.make ~print:String.escaped mutated_plan_gen)
    (fun text ->
       match Chaos.plan_of_json text with
       | _ -> true
       | exception Failure msg ->
         String.starts_with ~prefix:"Chaos.plan_of_json: " msg)

(* Exact bytes per fault kind. 0.1 +. 0.2 and 1/3 have no 12-digit
   form that reads back as the same double, so they take the %.17g
   fallback; the rest print short. *)
let test_fault_json_bytes () =
  List.iter
    (fun (f, want) ->
       Alcotest.(check string) want want
         (T.Json.to_string (Chaos.fault_json f)))
    [ (Chaos.Link_flap { a = 1; b = 2; at = 0.5; hold = 0.1 +. 0.2 },
       {|{"kind":"link_flap","at":0.5,"a":1,"b":2,"hold":0.30000000000000004}|});
      (Chaos.Node_down { node = 3; at = 1.25; hold = 2.0 },
       {|{"kind":"node_down","at":1.25,"node":3,"hold":2}|});
      (Chaos.Loss_burst
         { a = 4; b = 5; at = 0.1; duration = 0.0625; loss = 0.15 },
       {|{"kind":"loss_burst","at":0.1,"a":4,"b":5,"duration":0.0625,"loss":0.15}|});
      (Chaos.Corrupt_burst
         { a = 5; b = 4; at = 3.0; duration = 1e-3; corrupt = 1.0 /. 3.0 },
       {|{"kind":"corrupt_burst","at":3,"a":5,"b":4,"duration":0.001,"corrupt":0.33333333333333331}|});
      (Chaos.Session_drop { node = 7; at = 9.75 },
       {|{"kind":"session_drop","at":9.75,"node":7}|}) ]

(* A plan that went through JSON drives the exact same storm: arm the
   harness on identical scenarios with the original and the re-parsed
   plan and require byte-identical summaries, fate for fate. *)
let test_plan_replay_identity () =
  let deployment =
    Scenario.Mpls_deployment
      { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
        use_te = false }
  in
  let run plan_override =
    T.Registry.reset ();
    Packet.reset_uid_counter ();
    let sc = Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:2 ~seed:5
        deployment
    in
    let h =
      Harness.arm ?plan:plan_override ~frr:true ~fallback:true ~seed:9
        ~duration:8.0 sc
    in
    Scenario.add_mixed_workload ~load:0.5 sc
      ~pairs:(Scenario.default_pairs sc) ~duration:8.0;
    Scenario.run sc ~duration:13.0;
    (Harness.plan h, T.Json.to_string (Harness.summary_json h))
  in
  let plan, s1 = run None in
  let parsed = Chaos.plan_of_json (plan_string plan) in
  Alcotest.(check bool) "parsed plan equals the drawn plan" true
    (parsed = plan);
  let _, s2 = run (Some parsed) in
  Alcotest.(check string) "replay of the parsed plan is byte-identical" s1 s2

(* --- invariant auditor -------------------------------------------------- *)

module Audit = Mvpn_resilience.Audit

let audit_scenario () =
  Packet.reset_uid_counter ();
  Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:2 ~seed:3
    (Scenario.Mpls_deployment
       { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
         use_te = false })

(* The acceptance bug: a drop table that silently loses increments.
   [set_drop_leak] swallows the next N table bookings while the packet
   is still retired from the live count, so the conservation equation
   genuinely unbalances — and the auditor must say so. The control run
   takes the identical path with the leak disarmed and must stay
   silent. The engine runs bare, without [Scenario.run]'s close-out:
   the intercepted packet is dropped without ever being injected, which
   the strict close at the horizon rejects even in the control run. *)
let test_audit_catches_drop_leak () =
  let run ~leak =
    T.Registry.reset ();
    let sc = audit_scenario () in
    let net = Scenario.network sc in
    let eng = Scenario.engine sc in
    if leak then Network.set_drop_leak net 1;
    let a = Audit.start ~interval:1.0 ~until:6.0 sc in
    Scenario.add_mixed_workload ~load:0.4 sc
      ~pairs:(Scenario.default_pairs sc) ~duration:5.0;
    Engine.schedule eng ~delay:0.5 (fun () ->
        let site = Scenario.site sc ~vpn:1 ~idx:0 in
        let p =
          Packet.make ~vpn:1 ~now:(Engine.now eng)
            (Flow.make (Site.host site 1) (Site.host site 2))
        in
        Network.drop_packet ~node:site.Site.ce_node ~packet:p net
          "test-intercept");
    Engine.run ~until:6.0 eng;
    Audit.stop a;
    (Audit.violations a, Audit.recent_violations a)
  in
  let clean, _ = run ~leak:false in
  Alcotest.(check int) "clean run audits clean" 0 clean;
  let bad, recent = run ~leak:true in
  if bad = 0 then Alcotest.fail "leaked drop booking went unnoticed";
  Alcotest.(check bool) "violation names conservation" true
    (List.exists (fun (inv, _) -> inv = "conservation") recent)

(* Audited run under a seeded storm: every invariant holds end to end,
   and the audit publishes its tick/check counters. *)
let test_audit_clean_under_storm () =
  T.Registry.reset ();
  let sc = audit_scenario () in
  let h = Harness.arm ~frr:true ~fallback:true ~seed:21 ~duration:8.0 sc in
  let a =
    Audit.start ~interval:0.5 ~until:13.0 ?frr:(Harness.frr h) sc
  in
  Scenario.add_mixed_workload ~load:0.6 sc
    ~pairs:(Scenario.default_pairs sc) ~duration:8.0;
  Scenario.run sc ~duration:13.0;
  Alcotest.(check int) "no violations under the storm" 0
    (Audit.violations a);
  Alcotest.(check bool) "auditor actually ticked" true (Audit.ticks a > 10);
  Alcotest.(check int) "counter mirrors ticks" (Audit.ticks a)
    (cv "audit.ticks");
  Alcotest.(check int) "conservation checked every tick" (Audit.ticks a)
    (cv "audit.check.conservation")

(* After the first tick sizes the auditor's tables, the loop check
   (ring walk + rx-per-uid table) and the queue check (per-band
   counters into flat arrays) allocate nothing, over a full hop-trace
   ring and every port of a storm-armed network. *)
let test_audit_checks_allocate_nothing () =
  T.Registry.reset ();
  let sc = audit_scenario () in
  let h = Harness.arm ~frr:true ~fallback:true ~seed:21 ~duration:4.0 sc in
  let a = Audit.start ~interval:0.5 ~until:6.0 ?frr:(Harness.frr h) sc in
  Scenario.add_mixed_workload ~load:0.6 sc
    ~pairs:(Scenario.default_pairs sc) ~duration:4.0;
  Scenario.run sc ~duration:9.0;
  let ring = T.Registry.trace () in
  Alcotest.(check bool) "hop-trace ring is full" true
    (T.Hop_trace.recorded ring >= T.Hop_trace.capacity ring);
  Audit.check_loops a;
  Audit.check_queues a;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    Audit.check_loops a;
    Audit.check_queues a
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 10 loop + queue checks" 0.0
    dw;
  Alcotest.(check int) "no violations" 0 (Audit.violations a)

(* The rx-per-uid table restarts every check: a uid received more than
   [max_hops] times in the ring is flagged once per check — also when
   it shares a table slot with another — and a uid at the bound, or
   seen only as tx, is not. *)
let test_audit_loop_check_counts_per_uid () =
  T.Registry.reset ();
  let sc = audit_scenario () in
  let a = Audit.start ~max_hops:3 sc in
  let ring = T.Registry.trace () in
  T.Hop_trace.clear ring;
  let rx = T.Hop_trace.intern "rx" and tx = T.Hop_trace.intern "tx" in
  let collide = 7 + (2 * T.Hop_trace.capacity ring) in
  let clock = Float.Array.make 1 0.0 in
  let record uid code =
    T.Hop_trace.record_code ring ~uid ~clock ~node:0 code
  in
  for i = 1 to 4 do
    record 7 rx;
    record collide rx;
    record 9 tx;
    if i <= 3 then record 8 rx
  done;
  let loops () =
    List.filter (fun (inv, _) -> inv = "loops") (Audit.recent_violations a)
  in
  Audit.check_loops a;
  Alcotest.(check (list string)) "the two uids over the bound"
    [ "packet uid 7 seen rx 4 times (bound 3)";
      Printf.sprintf "packet uid %d seen rx 4 times (bound 3)" collide ]
    (List.map snd (loops ()));
  Audit.check_loops a;
  Alcotest.(check int) "recounted from scratch on the next check" 4
    (List.length (loops ()))

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_audit_start_validation () =
  let sc = audit_scenario () in
  List.iter
    (fun (name, bad) ->
       expect_invalid name (fun () ->
           ignore (Audit.start ~interval:bad sc)))
    [ ("nan interval", Float.nan); ("zero interval", 0.0);
      ("negative interval", -1.0); ("infinite interval", infinity) ];
  expect_invalid "nan until" (fun () ->
      ignore (Audit.start ~until:Float.nan sc));
  expect_invalid "negative until" (fun () ->
      ignore (Audit.start ~until:(-1.0) sc));
  expect_invalid "max_hops < 1" (fun () ->
      ignore (Audit.start ~max_hops:0 sc));
  expect_invalid "heap_slack < 1" (fun () ->
      ignore (Audit.start ~heap_slack:0.5 sc))

(* The overlay's discards take the one terminal path too. In a pooled
   run, the packets the IPsec overlay drops while its tunnels are still
   keying go back to the pool, so the auditor's leak witness stays put
   and the books balance. *)
let test_audit_pooled_overlay () =
  T.Registry.reset ();
  Packet.set_pooling true;
  Fun.protect ~finally:(fun () -> Packet.set_pooling false) @@ fun () ->
  let sc =
    Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:2 ~seed:3
      (Scenario.Overlay_deployment
         { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
           cipher = Mvpn_ipsec.Crypto.Des; copy_tos = true })
  in
  let net = Scenario.network sc in
  (* Re-key the mesh through IKE: the CEs drop what they are handed
     before the exchanges complete as "ike-pending". *)
  ignore
    (Overlay.deploy ~ike:(Mvpn_ipsec.Ike.default_params ~rtt:0.1) ~net
       ~sites:(Array.to_list (Scenario.sites sc)) ());
  let a = Audit.start ~interval:0.25 ~until:6.0 sc in
  Scenario.add_mixed_workload ~load:0.4 sc
    ~pairs:(Scenario.default_pairs sc) ~duration:5.0;
  Scenario.run sc ~duration:6.0;
  Audit.stop a;
  let pending =
    Option.value ~default:0
      (List.assoc_opt "ike-pending" (Network.drop_counts net))
  in
  Alcotest.(check bool) "early packets dropped as ike-pending" true
    (pending > 0);
  Alcotest.(check bool) "keyed tunnels deliver" true
    ((Network.flow_totals net).Network.delivered > 0);
  Alcotest.(check bool) "pool check ran" true (cv "audit.check.pool" > 0);
  Alcotest.(check (list (pair string string))) "no violations" []
    (Audit.recent_violations a)

(* What [mvpn soak --fail-fast] maps to exit 1: a soak replica whose
   auditor is armed fail-fast raises the first violation out of the
   runner. A leaked drop booking unbalances the books on the next
   tick. *)
let test_soak_fail_fast_raises () =
  T.Registry.reset ();
  let duration = 3.0 in
  let prepare sc =
    Harness.soak_replica ~audit:(1.0, true) ~duration sc;
    let net = Scenario.network sc in
    Network.set_drop_leak net 1;
    (* A destination no VRF holds: the ingress PE drops it. *)
    let site = Scenario.site sc ~vpn:1 ~idx:0 in
    let eng = Scenario.engine sc in
    Engine.schedule eng ~delay:0.5 (fun () ->
        Network.inject net site.Site.ce_node
          (Packet.make ~vpn:1 ~now:(Engine.now eng)
             (Flow.make (Site.host site 1)
                (Mvpn_net.Ipv4.of_string_exn "192.0.2.1"))))
  in
  let cfg =
    { Runner.default_config with
      Runner.shards = 1; pops = 6; vpns = 1; sites_per_vpn = 2; load = 0.4;
      duration; prepare_replica = prepare }
  in
  (* Through the sharded runner too: the failing shard aborts the
     clock, so its sibling stops waiting for a publication that never
     comes and the runner joins both domains before re-raising. *)
  List.iter
    (fun (name, run) ->
       match run cfg with
       | _ -> Alcotest.failf "%s: the leaked drop booking did not abort the run" name
       | exception Audit.Violation (invariant, _) ->
         Alcotest.(check string) (name ^ ": invariant") "conservation" invariant)
    [ ("sequential", Runner.run_sequential);
      ("K=2", fun cfg -> Runner.run_parallel { cfg with Runner.shards = 2 }) ]

(* --- repair bursts: equality oracle -------------------------------------- *)

module Fib = Mvpn_net.Fib
module Lfib = Mvpn_mpls.Lfib
module Label = Mvpn_mpls.Label
module Fec = Mvpn_mpls.Fec
module Ospf = Mvpn_routing.Ospf
module Spf = Mvpn_routing.Spf

let count_down topo =
  List.length
    (List.filter
       (fun (l : Topology.link) ->
          (not l.Topology.up) && l.Topology.src < l.Topology.dst)
       (Topology.links topo))

(* Arm FRR and backoff recovery on [sc] the way [Harness.arm] does, with
   [after_burst] called at the end of every repair burst (reconverge,
   then rearm), and run [plan] to quiescence with no traffic. *)
let run_bursts ~seed ~plan ~after_burst sc =
  let net = Scenario.network sc in
  let vpn = Option.get (Scenario.mpls sc) in
  let core = Scenario.core_links sc in
  let frr =
    Frr.arm ~links:(core @ List.map (fun (a, b) -> (b, a)) core) net
  in
  let recovery =
    Recovery.arm ~seed net ~repair:(fun () ->
        ignore (Mpls_vpn.reconverge vpn);
        Frr.rearm frr;
        after_burst vpn frr;
        (0, count_down (Network.topology net)))
  in
  Chaos.schedule net plan;
  List.iter
    (function
      | Chaos.Session_drop { at; _ } ->
        Engine.schedule_at (Network.engine net) ~time:at (fun () ->
            Recovery.request recovery)
      | _ -> ())
    plan;
  Engine.run (Scenario.engine sc)

let loopbacks bb =
  Array.to_list
    (Array.mapi (fun pop node -> (Backbone.loopback bb ~pop, node))
       (Backbone.pops bb))

(* Everything a burst writes, in a canonical text: per node the FIB
   routes and generation, labels allocated, ILM entries, loopback FTN
   entries and FRR protections; the PE next hops; the OSPF and LDP
   message counts and the FRR coverage. *)
let dump_control_plane buf sc vpn frr =
  let net = Scenario.network sc and bb = Scenario.backbone sc in
  let topo = Network.topology net and plane = Network.plane net in
  let fecs = loopbacks bb in
  let src_tag = function
    | Fib.Static -> "static" | Fib.Connected -> "connected"
    | Fib.Igp -> "igp" | Fib.Bgp -> "bgp"
  in
  for v = 0 to Topology.node_count topo - 1 do
    let fib = Network.fib net v in
    Printf.bprintf buf "node %d fib-gen %d\n" v (Fib.generation fib);
    Fib.iter
      (fun p (r : Fib.route) ->
         Printf.bprintf buf " route %s %d %d %s\n" (Prefix.to_string p)
           r.Fib.next_hop r.Fib.cost (src_tag r.Fib.source))
      fib;
    let allocated = Label.Allocator.allocated (Plane.allocator plane v) in
    Printf.bprintf buf " labels %d\n" allocated;
    let lfib = Plane.lfib plane v in
    for l = 0 to Label.first_unreserved + allocated - 1 do
      match Lfib.lookup lfib l with
      | Some { Lfib.op; next_hop } ->
        Printf.bprintf buf " ilm %d %s %d\n" l
          (match op with
           | Lfib.Swap o -> Printf.sprintf "swap %d" o
           | Lfib.Pop -> "pop"
           | Lfib.Pop_and_ip -> "pop-ip")
          next_hop
      | None -> ()
    done;
    List.iter
      (fun (p, _) ->
         match Plane.find_ftn plane v (Fec.Prefix_fec p) with
         | Some e ->
           Printf.bprintf buf " ftn %s push %d via %d\n" (Prefix.to_string p)
             e.Plane.push e.Plane.next_hop
         | None -> ())
      fecs;
    List.iter
      (fun (nbr, _) ->
         match Lfib.protection lfib ~next_hop:nbr with
         | Some pr ->
           Printf.bprintf buf " protect %d push %d via %d usable %b\n" nbr
             pr.Lfib.push pr.Lfib.via (pr.Lfib.usable ())
         | None -> ())
      (Topology.neighbors topo v)
  done;
  List.iter
    (fun (_, src) ->
       List.iter
         (fun (_, dst) ->
            match Mpls_vpn.pe_next_hop vpn ~src ~dst with
            | Some nh -> Printf.bprintf buf "pe %d %d via %d\n" src dst nh
            | None -> ())
         fecs)
    fecs;
  let s = Frr.stats frr in
  Printf.bprintf buf "ospf %d control %d frr %d/%d\n"
    (Ospf.messages_sent (Mpls_vpn.ospf vpn))
    (Mpls_vpn.metrics vpn).Mpls_vpn.control_messages s.Frr.protected_links
    s.Frr.unprotected_links

(* The seeded storm whose dumps are folded into one digest: an 8-POP
   backbone, 2 VPNs of 3 sites, 16 topology faults (flaps, node
   outages, session drops) over 20 s. *)
let burst_digest () =
  let sc =
    Scenario.build ~pops:8 ~vpns:2 ~sites_per_vpn:3 ~seed:5
      (Scenario.Mpls_deployment
         { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
           use_te = false })
  in
  let plan =
    Chaos.random_topology_plan ~events:16
      ~nodes:(Array.to_list (Backbone.pops (Scenario.backbone sc)))
      ~rng:(Rng.create 17) ~links:(Scenario.core_links sc) ~duration:20.0 ()
  in
  let digest = ref (Digest.string "") and bursts = ref 0 in
  let buf = Buffer.create 65536 in
  run_bursts ~seed:9 ~plan sc ~after_burst:(fun vpn frr ->
      Buffer.clear buf;
      Buffer.add_string buf !digest;
      dump_control_plane buf sc vpn frr;
      digest := Digest.string (Buffer.contents buf);
      incr bursts);
  (!bursts, Digest.to_hex !digest)

(* Pinned from the control plane as it stood before the allocation-free
   repair path: any rewrite of OSPF, SPF, LDP, FRR or the FIB refresh
   must leave every burst's state byte-identical. *)
let test_burst_digest_pinned () =
  let bursts, digest = burst_digest () in
  Alcotest.(check (pair int string)) "bursts and folded digest"
    (17, "8e6d799fb0737e676b8c9e04201bb85e") (bursts, digest)

(* A repair burst over an unchanged topology — the backoff retry that
   finds nothing new — recomputes everything in buffers it already
   owns. OSPF (origination, a flooding round, the FIB check) allocates
   nothing; the rest of the burst allocates the fresh FRR state (an ILM
   entry per bypass hop, a protection record per link) and a few
   closures, not trees, lists or tables: 2,858 words on this backbone
   (the perfbench soak's: 16 POPs, 4 VPNs × 8 sites, 48 protected
   links), where the list-and-table burst allocated ~75k. *)
let burst_word_bound = 4096.0

let test_noop_burst_allocation () =
  let sc =
    Scenario.build ~pops:16 ~vpns:4 ~sites_per_vpn:8 ~seed:11
      (Scenario.Mpls_deployment
         { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
           use_te = false })
  in
  let net = Scenario.network sc and vpn = Option.get (Scenario.mpls sc) in
  let core = Scenario.core_links sc in
  let frr =
    Frr.arm ~links:(core @ List.map (fun (a, b) -> (b, a)) core) net
  in
  let burst () =
    ignore (Mpls_vpn.reconverge vpn);
    Frr.rearm frr
  in
  (* Grow every buffer: one burst on a changed topology, one after. *)
  let a, b = List.hd core in
  Topology.set_duplex_state (Network.topology net) a b false;
  burst ();
  Topology.set_duplex_state (Network.topology net) a b true;
  burst ();
  burst ();
  let ospf = Mpls_vpn.ospf vpn in
  let w0 = Gc.minor_words () in
  let rounds = Ospf.converge ospf in
  let ospf_words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "nothing to flood" 0 rounds;
  Alcotest.(check (float 0.0)) "minor words of an unchanged OSPF converge"
    0.0 ospf_words;
  let w0 = Gc.minor_words () in
  burst ();
  let words = Gc.minor_words () -. w0 in
  if words > burst_word_bound then
    Alcotest.failf "a burst on an unchanged topology allocated %.0f words \
                    > %.0f" words burst_word_bound

(* After every burst of a random flap sequence, each repaired table
   must equal a fresh SPF over the live topology: every node's FIB
   route to each POP loopback (first hop and cost; local at the owner),
   every LDP binding toward each loopback (the egress-rooted tree's
   parent, PHP next to the egress, none when cut off) with the label it
   pushes installed downstream, and every PE next hop. OSPF must report
   converged whenever the topology is connected. Flaps may revert
   before the backoff fires, so some bursts see an unchanged
   topology. *)
let check_against_live sc vpn =
  let net = Scenario.network sc and bb = Scenario.backbone sc in
  let topo = Network.topology net and plane = Network.plane net in
  let n = Topology.node_count topo in
  let fecs = loopbacks bb in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let connected =
    Array.for_all Float.is_finite (Spf.dijkstra topo ~src:0).Spf.dist
  in
  if connected && not (Ospf.converged (Mpls_vpn.ospf vpn)) then
    fail "OSPF databases differ on a connected topology";
  for src = 0 to n - 1 do
    let tree = Spf.dijkstra topo ~src in
    List.iter
      (fun (p, owner) ->
         let want =
           if owner = src then
             Some (Fib.local_delivery, 0, Fib.Connected)
           else if Float.is_finite tree.Spf.dist.(owner) then
             Some
               ( tree.Spf.first_hop.(owner),
                 int_of_float tree.Spf.dist.(owner), Fib.Igp )
           else None
         in
         let got =
           Option.map
             (fun (r : Fib.route) -> (r.Fib.next_hop, r.Fib.cost, r.Fib.source))
             (Fib.find (Network.fib net src) p)
         in
         if got <> want then
           fail "node %d: FIB route to %s differs from live SPF" src
             (Prefix.to_string p))
      fecs
  done;
  List.iter
    (fun (p, egress) ->
       let tree = Spf.dijkstra topo ~src:egress in
       for r = 0 to n - 1 do
         if r <> egress then begin
           let ftn = Plane.find_ftn plane r (Fec.Prefix_fec p) in
           let reach = Float.is_finite tree.Spf.dist.(r) in
           let nh = tree.Spf.parent.(r) in
           match ftn with
           | None ->
             if reach && nh <> egress then
               fail "node %d: no LDP binding toward %s" r (Prefix.to_string p)
           | Some e ->
             if (not reach) || e.Plane.next_hop <> nh || nh = egress then
               fail "node %d: LDP next hop toward %s is %d, live SPF says %d"
                 r (Prefix.to_string p) e.Plane.next_hop nh;
             let want_op =
               if tree.Spf.parent.(nh) = egress then Lfib.Pop
               else
                 match Plane.find_ftn plane nh (Fec.Prefix_fec p) with
                 | Some down -> Lfib.Swap down.Plane.push
                 | None -> fail "node %d: downstream %d unbound" r nh
             in
             (match Lfib.lookup (Plane.lfib plane nh) e.Plane.push with
              | Some { Lfib.op; next_hop }
                when op = want_op && next_hop = tree.Spf.parent.(nh) -> ()
              | Some _ | None ->
                fail "node %d: label %d at %d does not continue the LSP" r
                  e.Plane.push nh)
         end
       done)
    fecs;
  List.iter
    (fun (_, src) ->
       let tree = Spf.dijkstra topo ~src in
       List.iter
         (fun (_, dst) ->
            let want =
              if dst <> src && tree.Spf.first_hop.(dst) >= 0 then
                Some tree.Spf.first_hop.(dst)
              else None
            in
            if Mpls_vpn.pe_next_hop vpn ~src ~dst <> want then
              fail "PE next hop %d -> %d differs from live SPF" src dst)
         fecs)
    fecs

let flap_gen =
  let open QCheck.Gen in
  list_size (int_range 1 8)
    (triple (int_range 0 63) (float_bound_exclusive 8.0)
       (oneof [ float_range 0.01 0.1; float_range 0.1 3.0 ]))

let repair_matches_live_property =
  QCheck.Test.make ~count:25
    ~name:"repair: bursts match a live SPF after any flap sequence"
    (QCheck.make
       ~print:
         QCheck.Print.(list (triple int float float))
       flap_gen)
    (fun flaps ->
       let sc =
         Scenario.build ~pops:6 ~vpns:1 ~sites_per_vpn:2 ~seed:3
           (Scenario.Mpls_deployment
              { policy = Qos_mapping.Best_effort; use_te = false })
       in
       let core = Array.of_list (Scenario.core_links sc) in
       let plan =
         List.map
           (fun (i, at, hold) ->
              let a, b = core.(i mod Array.length core) in
              Chaos.Link_flap { a; b; at; hold })
           (List.sort (fun (_, x, _) (_, y, _) -> Float.compare x y) flaps)
       in
       let bursts = ref 0 in
       run_bursts ~seed:5 ~plan sc ~after_burst:(fun vpn _ ->
           incr bursts;
           check_against_live sc vpn);
       !bursts > 0)

let qt t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "resilience"
    [ ("frr",
       [ Alcotest.test_case "same-tick switchover" `Quick
           (with_telemetry test_frr_switchover);
         Alcotest.test_case "rearm after a node is added" `Quick
           (with_telemetry test_frr_rearm_after_node_added) ]);
      ("fallback",
       [ Alcotest.test_case "session loss degrades and restores" `Quick
           (with_telemetry test_fallback_and_restore);
         Alcotest.test_case "fallback off still accounted" `Quick
           (with_telemetry test_fallback_off_drops_accounted) ]);
      ("recovery",
       [ Alcotest.test_case "flap storm damps" `Quick
           (with_telemetry test_flap_storm_damps);
         Alcotest.test_case "damped link released after hold" `Quick
           (with_telemetry test_flap_release_after_hold) ]);
      ("chaos",
       [ Alcotest.test_case "seeded runs deterministic" `Quick
           (with_telemetry test_chaos_deterministic);
         qt superset_property ]);
      ("plan-json",
       [ qt plan_roundtrip_property;
         qt plan_fuzz_property;
         Alcotest.test_case "fault json bytes" `Quick test_fault_json_bytes;
         Alcotest.test_case "parsed plan replays byte-identically" `Quick
           (with_telemetry test_plan_replay_identity) ]);
      ("audit",
       [ Alcotest.test_case "clean under a seeded storm" `Quick
           (with_telemetry test_audit_clean_under_storm);
         Alcotest.test_case "catches a leaky drop table" `Quick
           (with_telemetry test_audit_catches_drop_leak);
         Alcotest.test_case "start validates its knobs" `Quick
           test_audit_start_validation;
         Alcotest.test_case "loop and queue checks allocate nothing" `Quick
           (with_telemetry test_audit_checks_allocate_nothing);
         Alcotest.test_case "loop check counts rx per uid" `Quick
           (with_telemetry test_audit_loop_check_counts_per_uid);
         Alcotest.test_case "pooled overlay run audits clean" `Quick
           (with_telemetry test_audit_pooled_overlay);
         Alcotest.test_case "soak fail-fast raises the violation" `Quick
           test_soak_fail_fast_raises ]);
      ("repair",
       [ Alcotest.test_case "burst digest matches the pinned value" `Quick
           test_burst_digest_pinned;
         Alcotest.test_case "unchanged-topology burst allocates little"
           `Quick test_noop_burst_allocation;
         qt repair_matches_live_property ]) ]
