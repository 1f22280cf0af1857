(* E6 — the end-to-end deployment chain (Fig. 3/4, §5, claim C6).

   "The customer premises device could use technologies such as CBQ to
   classify traffic and DiffServ/ToS to mark it [...]. The network edge
   will then map the CPE-specified DiffServ/ToS service level
   specification into the QoS field of the MPLS header, providing a way
   to protect the service level definition on an end-to-end basis."

   Three deployments of the same congested network, removing one link
   of the chain at a time:
     full      — CBQ marking at the CPE + DSCP->EXP mapping at the PE;
     no-exp    — CPE marks, but the edge writes EXP 0 (labelled packets
                 are indistinguishable inside the core);
     no-mark   — the CPE never marks (everything enters best-effort).
   Congestion lives in the core, where only the EXP bits are visible. *)

open Mvpn_core
module Engine = Mvpn_sim.Engine
module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4
module Flow = Mvpn_net.Flow
module Dscp = Mvpn_net.Dscp
module Sla = Mvpn_qos.Sla
module Cbq = Mvpn_qos.Cbq
module Classifier = Mvpn_qos.Classifier

let pairs = 3
let core_bandwidth = 10e6
let access_bandwidth = 5e6
let duration = 25.0

let make_cpe () =
  Cbq.create
    ~classes:
      [| { Cbq.name = "voice"; rate_bps = 128_000.0; burst_bytes = 4_000.0;
           dscp = Dscp.ef; exceed = Cbq.Police_drop; borrow = false };
         { Cbq.name = "business"; rate_bps = 500_000.0;
           burst_bytes = 20_000.0; dscp = Dscp.af 3 1;
           exceed = Cbq.Remark (Dscp.af 3 3); borrow = false } |]
    ~rules:
      [ Classifier.rule ~proto:Flow.Udp ~dst_port:(5060, 5061) 0;
        Classifier.rule ~proto:Flow.Udp ~dst_port:(1433, 1433) 1 ]
    ()

let run_variant ?slo ?failure ~cpe_marks ~map_dscp_to_exp () =
  let bb = Backbone.build ~pops:3 ~core_bandwidth ~chords:[] () in
  let mk_sites pop base =
    List.init pairs (fun i ->
        Backbone.attach_site ~access_bandwidth bb ~id:(base + i)
          ~name:(Printf.sprintf "s%d" (base + i)) ~vpn:1
          ~prefix:(Prefix.make (Ipv4.of_octets 10 (base + i) 0 0) 16)
          ~pop)
  in
  let senders = mk_sites 0 0 and receivers = mk_sites 1 100 in
  let engine = Engine.create () in
  let net =
    Network.create
      ~policy:(Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched)
      engine (Backbone.topology bb)
  in
  let vpn =
    Mpls_vpn.deploy ~map_dscp_to_exp ~net ~backbone:bb
      ~sites:(senders @ receivers) ()
  in
  (* Optional SLA conformance tracking: stock per-band objectives for
     the one tenant, plus a span sampler. *)
  (match slo with
   | Some s ->
     for band = 0 to Qos_mapping.band_count - 1 do
       Mvpn_telemetry.Slo.declare s ~vpn:1 ~band
         (Qos_mapping.default_objective band)
     done;
     Network.set_slo net (Some s);
     Network.set_span_sampler net (Some (Mvpn_telemetry.Span.sampler ()))
   | None -> ());
  (* Optional core failure/repair churn between pop0 and pop1. *)
  (match failure with
   | Some (fail_at, repair_at) ->
     let pops = Backbone.pops bb in
     let set up =
       Mvpn_sim.Topology.set_duplex_state (Backbone.topology bb) pops.(0)
         pops.(1) up
     in
     Engine.schedule_at engine ~time:fail_at (fun () -> set false);
     Engine.schedule_at engine ~time:repair_at (fun () ->
         set true;
         ignore (Mpls_vpn.reconverge vpn))
   | None -> ());
  let registry = Traffic.registry engine in
  List.iter
    (fun (s : Site.t) ->
       Network.set_sink net s.Site.ce_node (Traffic.sink registry))
    (senders @ receivers);
  List.iteri
    (fun i (a : Site.t) ->
       let b = List.nth receivers i in
       let cbq = if cpe_marks then Some (make_cpe ()) else None in
       let mk label port rate size =
         let emit =
           Traffic.sender registry ~net ~src_node:a.Site.ce_node
             ~flow:(Flow.make ~proto:Flow.Udp ~dst_port:port
                      (Site.host a 1) (Site.host b 1))
             ~dscp:Dscp.best_effort ~vpn:1 ?cbq
             ~collector:(Traffic.collector registry label)
             ()
         in
         Traffic.cbr engine ~start:0.0 ~stop:duration ~rate_bps:rate
           ~packet_bytes:size emit
       in
       mk "voice" 5060 64_000.0 200;
       mk "transactional" 1433 200_000.0 512;
       mk "bulk" 20 3_300_000.0 1500)
    senders;
  Engine.run ~until:(duration +. 5.0) engine;
  (match slo with
   | Some s -> Mvpn_telemetry.Slo.advance s ~time:(Engine.now engine)
   | None -> ());
  ( Traffic.report registry "voice",
    Traffic.report registry "transactional" )

let rec run () =
  Tables.heading
    "E6: CPE CBQ marking + edge DSCP->EXP mapping, core congested at 104%";
  let widths = [10; 9; 11; 11; 9; 11; 9; 6] in
  Tables.row widths
    [ "CPE marks"; "EXP map"; "voice mean"; "voice p99"; "v loss";
      "trans mean"; "t loss"; "SLA" ];
  Tables.rule widths;
  List.iter
    (fun (cpe_marks, map_exp) ->
       let voice, trans =
         run_variant ~cpe_marks ~map_dscp_to_exp:map_exp ()
       in
       Tables.row widths
         [ string_of_bool cpe_marks;
           string_of_bool map_exp;
           Tables.ms voice.Sla.mean_delay;
           Tables.ms voice.Sla.p99_delay;
           Tables.pct voice.Sla.loss;
           Tables.ms trans.Sla.mean_delay;
           Tables.pct trans.Sla.loss;
           (if Sla.complies Sla.voice_spec voice then "ok" else "VIOL") ])
    [(true, true); (true, false); (false, true)];
  Tables.note
    "\nExpected shape (paper C6): only the full chain (marks + mapping)\n\
     protects voice end-to-end. Remove the edge mapping and labelled\n\
     voice drowns in the congested core despite correct CPE marking;\n\
     remove CPE marking and the mapping has nothing to carry.";
  Telemetry_report.section
    ~title:
      "E6b: full-chain telemetry (marks + mapping, congested core)"
    (fun () ->
       ignore (run_variant ~cpe_marks:true ~map_dscp_to_exp:true ()));
  e6c ()

(* E6c — SLA conformance under failure: the full chain again, with the
   pop0<->pop1 core link failed at t=10s and repaired (plus
   reconvergence) at t=12s, per-(vpn, band) SLOs watching. The
   conformance gauges and violation counts land in
   BENCH_telemetry.json. *)
and e6c () =
  Tables.heading
    "E6c: SLA conformance under failure (full chain, core link down \
     10s-12s)";
  let module T = Mvpn_telemetry in
  let slo, _ =
    T.Registry.scoped (fun () ->
        let slo = T.Slo.create () in
        T.Control.with_enabled (fun () ->
            ignore
              (run_variant ~slo ~failure:(10.0, 12.0) ~cpe_marks:true
                 ~map_dscp_to_exp:true ()));
        slo)
  in
  (* The event log keeps the scope's entries. *)
  let events = T.Registry.events () in
  let violations = T.Event_log.count_kind events "slo_violation" in
  let recoveries = T.Event_log.count_kind events "slo_recovered" in
  let widths = [14; 8; 8; 8; 10; 10; 10] in
  Tables.row widths
    ["vpn/band"; "total"; "bad"; "drops"; "budget"; "burn fast"; "state"];
  Tables.rule widths;
  List.iter
    (fun (r : T.Slo.report) ->
       if r.T.Slo.total > 0 then
         Tables.row widths
           [ Printf.sprintf "v%d %s" r.T.Slo.vpn
               (Qos_mapping.band_name r.T.Slo.band);
             string_of_int r.T.Slo.total;
             string_of_int r.T.Slo.bad;
             string_of_int r.T.Slo.drops;
             Printf.sprintf "%.0f%%" (100.0 *. r.T.Slo.budget_remaining);
             Printf.sprintf "%.2g" r.T.Slo.burn_fast;
             (if r.T.Slo.in_budget then "ok" else "OVER") ])
    (T.Slo.reports slo);
  Tables.note
    "\n%d slo_violation and %d slo_recovered events across the outage\n\
     (every class suffers while the ring is cut; budgets show which\n\
     classes spent the failure affordably)." violations recoveries;
  T.Control.with_enabled (fun () ->
      T.Slo.publish_gauges ~prefix:"e6c.slo" slo;
      T.Gauge.set
        (T.Registry.gauge "e6c.slo.violations")
        (float_of_int violations);
      T.Gauge.set
        (T.Registry.gauge "e6c.slo.recovered")
        (float_of_int recoveries))
