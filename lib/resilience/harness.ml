module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Network = Mvpn_core.Network
module Scenario = Mvpn_core.Scenario
module Backbone = Mvpn_core.Backbone
module Mpls_vpn = Mvpn_core.Mpls_vpn
module Port = Mvpn_qos.Port
module Telemetry = Mvpn_telemetry
module Json = Mvpn_telemetry.Json

type t = {
  sc : Scenario.t;
  vpn : Mpls_vpn.t;
  frr : Frr.t option;
  recovery : Recovery.t;
  plan : Chaos.plan;
  seed : int;
  duration : float;
}

let scenario t = t.sc
let plan t = t.plan
let frr t = t.frr

let down_duplex net =
  List.length
    (List.filter
       (fun (l : Topology.link) ->
          (not l.Topology.up) && l.Topology.src < l.Topology.dst)
       (Topology.links (Network.topology net)))

(* Arm the full resilience stack plus a seeded fault plan on an
   existing scenario. The repair burst is the real one: reconverge the
   whole control plane, then re-plumb bypasses against the surviving
   graph. [restored] is the number of duplex links that came back
   since the previous burst; [still_down] drives the backoff. *)
let arm ?(events = 12) ?plan:plan_override ~frr:frr_on
    ~fallback ~seed ~duration sc =
  let net = Scenario.network sc in
  let vpn =
    match Scenario.mpls sc with
    | Some v -> v
    | None -> invalid_arg "Harness.arm: scenario has no MPLS deployment"
  in
  Mpls_vpn.set_ip_fallback vpn fallback;
  let core = Scenario.core_links sc in
  let directed = core @ List.map (fun (a, b) -> (b, a)) core in
  let frr = if frr_on then Some (Frr.arm ~links:directed net) else None in
  let prev_down = ref 0 in
  let repair () =
    ignore (Mpls_vpn.reconverge vpn);
    (match frr with Some f -> Frr.rearm f | None -> ());
    let d = down_duplex net in
    let restored = max 0 (!prev_down - d) in
    prev_down := d;
    (restored, d)
  in
  let recovery = Recovery.arm ~seed:((seed * 7) + 1) net ~repair in
  let plan =
    match plan_override with
    | Some p -> p
    | None ->
      let rng = Rng.create seed in
      let nodes = Array.to_list (Backbone.pops (Scenario.backbone sc)) in
      Chaos.random_plan ~events ~nodes ~rng ~links:core ~duration ()
  in
  Chaos.schedule net plan;
  (* A session drop flips no link, so the duplex hook never sees it:
     arm the LDP refresh explicitly. Scheduled after the wipe (same
     time, later insertion), it coalesces into the normal backoff. *)
  List.iter
    (function
      | Chaos.Session_drop { at; _ } ->
        Engine.schedule_at
          (Network.engine net)
          ~time:at
          (fun () -> Recovery.request recovery)
      | _ -> ())
    plan;
  { sc; vpn; frr; recovery; plan; seed; duration }

(* --- soak replicas --------------------------------------------------- *)

let soak_storm ?events ~seed ~duration build =
  Telemetry.Control.with_disabled (fun () ->
      let sc = build () in
      Chaos.random_topology_plan ?events
        ~nodes:(Array.to_list (Backbone.pops (Scenario.backbone sc)))
        ~rng:(Rng.create seed) ~links:(Scenario.core_links sc) ~duration ())

let soak_replica ?storm ?audit ~duration sc =
  let frr =
    match storm with
    | Some (seed, plan) ->
      frr (arm ~plan ~frr:true ~fallback:true ~seed ~duration sc)
    | None -> None
  in
  (* Live conformance for the auditor's budget-monotonicity check, with
     its events in a private log; a reported verdict comes from the
     runner's fate replay. *)
  ignore
    (Scenario.attach_slo
       ~slo:(Telemetry.Slo.create ~events:(Telemetry.Event_log.create ()) ())
       sc);
  (* The span sampler attach_slo arms re-walks the trace ring per
     sampled delivery, and nothing in a soak reads the spans. *)
  Network.set_span_sampler (Scenario.network sc) None;
  Option.iter
    (fun (interval, fail_fast) ->
       ignore
         (Audit.start ~interval ~until:(duration +. 5.0) ~fail_fast ?frr sc))
    audit

(* --- summary ------------------------------------------------------------ *)

type port_totals = {
  port_offered : int;
  port_queue : int;
  port_link_down : int;
  port_fault : int;
}

let port_totals t =
  let net = Scenario.network t.sc in
  List.fold_left
    (fun acc (l : Topology.link) ->
       let c = Port.counters (Network.port net ~link_id:l.Topology.id) in
       { port_offered = acc.port_offered + c.Port.offered;
         port_queue = acc.port_queue + c.Port.dropped_queue;
         port_link_down = acc.port_link_down + c.Port.dropped_link_down;
         port_fault = acc.port_fault + c.Port.dropped_fault })
    { port_offered = 0; port_queue = 0; port_link_down = 0; port_fault = 0 }
    (Topology.links (Network.topology (Scenario.network t.sc)))

let resilience_counters =
  [ "resilience.chaos.faults"; "resilience.frr.switched";
    "resilience.frr.unprotected"; "resilience.frr.protected_links";
    "resilience.frr.unprotected_links"; "resilience.fallback.packets";
    "resilience.fallback.engaged"; "resilience.fallback.restored";
    "resilience.recovery.resignal"; "resilience.recovery.suppressed";
    "resilience.recovery.damped"; "resilience.recovery.released";
    "rsvp.reroute.attempt"; "rsvp.reroute.skipped" ]

let event_kinds =
  [ "fault_injected"; "link_down"; "link_up"; "frr_switchover";
    "fallback_engaged"; "lsp_restored"; "flap_damped"; "flap_released";
    "resignal" ]

let summary_json t =
  let counts f keys = Json.(Obj (List.map (fun k -> (k, Int (f k))) keys)) in
  let p = port_totals t in
  let events = Telemetry.Registry.events () in
  Json.(
    envelope
      [ ("seed", Int t.seed); ("duration", Float t.duration);
        ("frr", Bool (t.frr <> None));
        ("fallback", Bool (Mpls_vpn.ip_fallback t.vpn));
        ("plan", Chaos.plan_json t.plan);
        ("delivered", Int (Telemetry.Registry.counter_value "net.delivered"));
        ("port",
         Obj
           [ ("offered", Int p.port_offered);
             ("queue_drops", Int p.port_queue);
             ("link_down_drops", Int p.port_link_down);
             ("fault_drops", Int p.port_fault) ]);
        ("drops",
         Obj
           (List.map
              (fun (reason, n) -> (reason, Int n))
              (Network.drop_counts (Scenario.network t.sc))));
        ("counters",
         counts Telemetry.Registry.counter_value resilience_counters);
        ("events", counts (Telemetry.Event_log.count_kind events) event_kinds)
      ])

let pp_summary ppf t =
  let p = port_totals t in
  let net = Scenario.network t.sc in
  Format.fprintf ppf "chaos plan (seed %d, %d faults):@." t.seed
    (List.length t.plan);
  List.iter (fun f -> Format.fprintf ppf "  %a@." Chaos.pp_fault f) t.plan;
  Format.fprintf ppf "@.fates:@.";
  Format.fprintf ppf "  delivered        %d@."
    (Telemetry.Registry.counter_value "net.delivered");
  List.iter
    (fun (reason, n) -> Format.fprintf ppf "  drop %-12s %d@." reason n)
    (Network.drop_counts net);
  Format.fprintf ppf
    "  port: queue %d, link-down %d, fault %d (of %d offered)@."
    p.port_queue p.port_link_down p.port_fault p.port_offered;
  Format.fprintf ppf "@.resilience:@.";
  List.iter
    (fun name ->
       Format.fprintf ppf "  %-36s %d@." name
         (Telemetry.Registry.counter_value name))
    resilience_counters;
  (match t.frr with
   | Some f ->
     let s = Frr.stats f in
     Format.fprintf ppf "  bypasses: %d protected, %d unprotected@."
       s.Frr.protected_links s.Frr.unprotected_links
   | None -> Format.fprintf ppf "  fast reroute disarmed@.");
  Format.fprintf ppf "  damped links now: %s@."
    (match Recovery.damped_links t.recovery with
     | [] -> "none"
     | l ->
       String.concat ", "
         (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l))
