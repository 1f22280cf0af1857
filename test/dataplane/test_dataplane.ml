(* The compiled dataplane's contract: with the route caches armed it is
   observationally identical to the uncached reference path — same
   deliveries, same drop reasons, same hop-by-hop traces — and a
   generation bump (reconvergence, LDP re-splice, interceptor change)
   invalidates every cached answer before the next packet. *)

open Mvpn_core
module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4
module Flow = Mvpn_net.Flow
module Packet = Mvpn_net.Packet
module Fib = Mvpn_net.Fib
module Plane = Mvpn_mpls.Plane

let pfx = Prefix.of_string_exn

let action_string = function
  | Network.Trace_receive (Some n) -> Printf.sprintf "rx<%d" n
  | Network.Trace_receive None -> "rx<inject"
  | Network.Trace_transmit n -> Printf.sprintf "tx>%d" n
  | Network.Trace_deliver -> "deliver"
  | Network.Trace_drop r -> "drop:" ^ r

let event_string (e : Network.trace_event) =
  Printf.sprintf "%.9f n%d u%d [%s] %s" e.Network.trace_time
    e.Network.trace_node e.Network.trace_uid
    (String.concat ";" (List.map string_of_int e.Network.trace_labels))
    (action_string e.Network.trace_action)

(* One deterministic MPLS VPN scenario with mid-run churn (link failure
   + full reconvergence between two injection waves). Returns every
   observable: the full trace, per-site delivery log, drop counts. *)
let vpn_observables ~cache ~pops ~chord ~failed_link ~nsites =
  Packet.reset_uid_counter ();
  (* The diagonal is never a ring link for pops >= 4, so the chord can
     always be added without duplicating an edge. *)
  let bb =
    Backbone.build ~pops ~chords:(if chord then [(0, pops / 2)] else []) ()
  in
  let sites =
    List.init nsites (fun i ->
        Backbone.attach_site bb ~id:i ~name:(Printf.sprintf "s%d" i) ~vpn:1
          ~prefix:(Prefix.make (Ipv4.of_octets 10 i 0 0) 16)
          ~pop:(i mod pops))
  in
  let engine = Engine.create () in
  let net = Network.create ~route_cache:cache engine (Backbone.topology bb) in
  let vpn = Mpls_vpn.deploy ~net ~backbone:bb ~sites () in
  let events = ref [] in
  Network.set_tracer net
    (Some (fun e -> events := event_string e :: !events));
  let deliveries = ref [] in
  List.iter
    (fun (s : Site.t) ->
       Network.set_sink net s.Site.ce_node (fun p ->
           deliveries := (s.Site.id, p.Packet.uid) :: !deliveries))
    sites;
  let wave () =
    List.iter
      (fun (a : Site.t) ->
         List.iter
           (fun (b : Site.t) ->
              if a.Site.id <> b.Site.id then
                Network.inject net a.Site.ce_node
                  (Packet.make ~vpn:1 ~now:(Engine.now engine)
                     (Flow.make
                        (Prefix.nth_host a.Site.prefix 1)
                        (Prefix.nth_host b.Site.prefix 1))))
           sites)
      sites;
    Engine.run engine
  in
  wave ();
  Topology.set_duplex_state (Backbone.topology bb)
    (Backbone.pops bb).(failed_link mod pops)
    (Backbone.pops bb).((failed_link + 1) mod pops)
    false;
  ignore (Mpls_vpn.reconverge vpn);
  wave ();
  (List.rev !events, List.rev !deliveries, Network.drop_counts net)

let equivalence_property =
  QCheck.Test.make
    ~name:"cached dataplane observationally equal to uncached, with churn"
    ~count:10
    QCheck.(quad (int_range 4 6) bool (int_range 0 5) (int_range 2 4))
    (fun (pops, chord, failed_link, nsites) ->
       (* The shrinker can step outside the generator's range; clamp so
          every shrunk candidate is still a buildable scenario. *)
       let pops = max 4 (min 6 pops) in
       let failed_link = abs failed_link mod pops in
       let nsites = max 2 (min 4 nsites) in
       let reference =
         vpn_observables ~cache:false ~pops ~chord ~failed_link ~nsites
       in
       let cached =
         vpn_observables ~cache:true ~pops ~chord ~failed_link ~nsites
       in
       reference = cached)

(* E13-style staleness: warm the caches across a link, fail it,
   reconverge — not one packet may still follow the dead next hop. *)
let test_reconvergence_staleness () =
  let bb = Backbone.build ~pops:6 ~chords:[] () in
  let site_a =
    Backbone.attach_site bb ~id:0 ~name:"a" ~vpn:1
      ~prefix:(pfx "10.0.0.0/16") ~pop:0
  in
  let site_b =
    Backbone.attach_site bb ~id:1 ~name:"b" ~vpn:1
      ~prefix:(pfx "10.1.0.0/16") ~pop:1
  in
  let engine = Engine.create () in
  let net =
    Network.create ~route_cache:true engine (Backbone.topology bb)
  in
  let vpn = Mpls_vpn.deploy ~net ~backbone:bb ~sites:[site_a; site_b] () in
  let delivered = ref 0 in
  Network.set_sink net site_b.Site.ce_node (fun _ -> incr delivered);
  Network.set_sink net site_a.Site.ce_node (fun _ -> ());
  let send () =
    Network.inject net site_a.Site.ce_node
      (Packet.make ~vpn:1 ~now:(Engine.now engine)
         (Flow.make
            (Prefix.nth_host site_a.Site.prefix 1)
            (Prefix.nth_host site_b.Site.prefix 1)));
    Engine.run engine
  in
  (* Warm every cache on the pop0->pop1 path. *)
  send ();
  Alcotest.(check int) "warmup delivered" 1 !delivered;
  let pops = Backbone.pops bb in
  let recompiles_before = Dataplane.recompiles (Network.dataplane net) in
  Topology.set_duplex_state (Backbone.topology bb) pops.(0) pops.(1) false;
  ignore (Mpls_vpn.reconverge vpn);
  (* Watch every forwarding step after the failure. *)
  let stale = ref 0 in
  Network.set_tracer net
    (Some
       (fun (e : Network.trace_event) ->
          match e.Network.trace_action with
          | Network.Trace_transmit to_
            when (e.Network.trace_node = pops.(0) && to_ = pops.(1))
              || (e.Network.trace_node = pops.(1) && to_ = pops.(0)) ->
            incr stale
          | _ -> ()));
  send ();
  Alcotest.(check int) "delivered after failure" 2 !delivered;
  Alcotest.(check int) "no packet used the dead link" 0 !stale;
  Alcotest.(check bool) "generation bump recompiled the pipelines" true
    (Dataplane.recompiles (Network.dataplane net) > recompiles_before)

(* Cache hit/miss telemetry: the counters the operator story (and
   `mvpn stats`) rests on actually move, and only when the cache is on. *)
let test_cache_counters () =
  Mvpn_telemetry.Control.with_enabled (fun () ->
      let fib_hits () =
        Mvpn_telemetry.Registry.counter_value "fib.cache.hit"
      in
      let fib_misses () =
        Mvpn_telemetry.Registry.counter_value "fib.cache.miss"
      in
      let hits0 = fib_hits () and misses0 = fib_misses () in
      let topo = Topology.create () in
      let ids = Topology.line topo 2 ~bandwidth:1e6 ~delay:0.001 in
      let engine = Engine.create () in
      let net = Network.create ~route_cache:true engine topo in
      Fib.add (Network.fib net ids.(0)) (pfx "10.9.0.0/16")
        { Fib.next_hop = ids.(1); cost = 1; source = Fib.Static };
      Fib.add (Network.fib net ids.(1)) (pfx "10.9.0.0/16")
        { Fib.next_hop = Fib.local_delivery; cost = 1; source = Fib.Static };
      Network.set_sink net ids.(1) (fun _ -> ());
      for _ = 1 to 5 do
        Network.inject net ids.(0)
          (Packet.make ~now:(Engine.now engine)
             (Flow.make (Ipv4.of_octets 10 0 0 1) (Ipv4.of_octets 10 9 0 1)))
      done;
      Engine.run engine;
      (* 10 lookups total (2 nodes x 5 packets): 2 cold misses, 8 hits. *)
      Alcotest.(check int) "hits" 8 (fib_hits () - hits0);
      Alcotest.(check int) "misses" 2 (fib_misses () - misses0))

(* Interceptor chains recompile on registration and keep the
   first-Consumed-wins prepend order. *)
let test_interceptor_chain_order () =
  let plane = Plane.create ~nodes:1 in
  let fibs = [| Fib.create () |] in
  let dp = Dataplane.create ~cache:true ~nodes:1 ~plane ~fibs () in
  let hits = ref [] in
  Dataplane.set_hooks dp
    { Dataplane.transmit = (fun ~from:_ ~to_:_ _ -> ());
      deliver = (fun ~node:_ _ -> ());
      drop = (fun ~node:_ _ _ -> hits := "drop" :: !hits);
      notify_receive = (fun ~node:_ ~from:_ _ -> ()) };
  let mk name verdict =
    fun ~from:_ _ ->
      hits := name :: !hits;
      verdict
  in
  Dataplane.add_interceptor dp 0 (mk "first" Dataplane.Continue);
  Dataplane.add_interceptor dp 0 (mk "second" Dataplane.Continue);
  let p =
    Packet.make ~now:0.0
      (Flow.make (Ipv4.of_octets 10 0 0 1) (Ipv4.of_octets 10 9 0 1))
  in
  Dataplane.receive dp 0 ~from:None p;
  (* Prepend order: "second" runs before "first"; neither consumed, so
     the packet fell through to IP lookup and dropped (empty FIB). *)
  Alcotest.(check (list string)) "order then drop" ["drop"; "first"; "second"]
    !hits;
  hits := [];
  Dataplane.add_interceptor dp 0 (mk "third" Dataplane.Consumed);
  Dataplane.receive dp 0 ~from:None p;
  Alcotest.(check (list string)) "consumed short-circuits" ["third"] !hits

let () =
  Alcotest.run "dataplane"
    [ ("equivalence",
       [ QCheck_alcotest.to_alcotest equivalence_property ]);
      ("invalidation",
       [ Alcotest.test_case "reconvergence staleness" `Quick
           test_reconvergence_staleness ]);
      ("pipeline",
       [ Alcotest.test_case "cache counters" `Quick test_cache_counters;
         Alcotest.test_case "interceptor order" `Quick
           test_interceptor_chain_order ]) ]
