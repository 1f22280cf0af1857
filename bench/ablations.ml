(* Ablations for the design choices DESIGN.md §5 calls out:
   A1 scheduler family for the EF band;
   A2 WRED on/off for the AF classes;
   A3 penultimate-hop popping on/off;
   A4 RFC 2547 shared PE-PE LSPs + VPN label vs a per-site-pair LSP
      mesh (state comparison). *)

open Mvpn_core
module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4
module Sla = Mvpn_qos.Sla
module Queue_disc = Mvpn_qos.Queue_disc
module Ldp = Mvpn_mpls.Ldp
module Plane = Mvpn_mpls.Plane
module Spf = Mvpn_routing.Spf

(* --- A1: scheduler family ---------------------------------------------- *)

let scheds =
  [ ("wfq 8:4:2:1", Qos_mapping.default_diffserv_sched);
    ("strict", Queue_disc.Strict);
    ("drr 8:4:2:1", Queue_disc.Drr [| 12_000; 6_000; 3_000; 1_500 |]);
    ("wrr 8:4:2:1", Queue_disc.Wrr [| 8; 4; 2; 1 |]) ]

let a1_cell sched ~wred =
  let sc =
    Scenario.build ~pops:8 ~vpns:1 ~sites_per_vpn:4 ~wred
      (Scenario.Mpls_deployment
         { policy = Qos_mapping.Diffserv sched; use_te = false })
  in
  let pairs =
    [ (Scenario.site sc ~vpn:1 ~idx:0, Scenario.site sc ~vpn:1 ~idx:1);
      (Scenario.site sc ~vpn:1 ~idx:2, Scenario.site sc ~vpn:1 ~idx:3) ]
  in
  Scenario.add_mixed_workload ~load:1.2 sc ~pairs ~duration:20.0;
  Scenario.run sc ~duration:25.0;
  Scenario.class_reports sc

let report_of cls reports =
  try List.assoc cls reports with Not_found -> Sla.report (Sla.collector ())

(* A misbehaving EF source (unpoliced, at full access rate) exposes the
   starvation difference between the schedulers: traffic crosses a
   single 2 Mb/s link with 2.2 Mb/s of EF flood plus 1 Mb/s of bulk. *)
let a1_starvation sched =
  let topo = Topology.create () in
  let ids = Topology.line topo 2 ~bandwidth:2e6 ~delay:0.001 in
  let engine = Engine.create () in
  let net =
    Network.create ~policy:(Qos_mapping.Diffserv sched) engine topo
  in
  Mvpn_net.Fib.add (Network.fib net ids.(0)) Prefix.default
    { Mvpn_net.Fib.next_hop = ids.(1); cost = 1; source = Mvpn_net.Fib.Static };
  Mvpn_net.Fib.add (Network.fib net ids.(1)) Prefix.default
    { Mvpn_net.Fib.next_hop = Mvpn_net.Fib.local_delivery; cost = 0;
      source = Mvpn_net.Fib.Connected };
  let registry = Traffic.registry engine in
  Network.set_sink net ids.(1) (Traffic.sink registry);
  let mk label dscp port rate =
    let emit =
      Traffic.sender registry ~net ~src_node:ids.(0)
        ~flow:(Mvpn_net.Flow.make ~proto:Mvpn_net.Flow.Udp ~dst_port:port
                 (Ipv4.of_string_exn "10.0.0.1")
                 (Ipv4.of_string_exn "10.1.0.1"))
        ~dscp
        ~collector:(Traffic.collector registry label)
        ()
    in
    Traffic.cbr engine ~start:0.0 ~stop:20.0 ~rate_bps:rate
      ~packet_bytes:1000 emit
  in
  mk "flood" Mvpn_net.Dscp.ef 5060 2_200_000.0;
  mk "victim" Mvpn_net.Dscp.best_effort 20 1_000_000.0;
  Engine.run engine;
  ( Traffic.report registry "flood",
    Traffic.report registry "victim" )

let a1 () =
  Tables.heading "A1a: EF scheduler family at offered load 120% (policed EF)";
  let widths = [14; 11; 11; 10; 10; 10] in
  Tables.row widths
    ["scheduler"; "voice mean"; "voice p99"; "voice loss"; "bulk loss";
     "bulk tput"];
  Tables.rule widths;
  List.iter
    (fun (name, sched) ->
       let reports = a1_cell sched ~wred:true in
       let v = report_of "voice" reports in
       let b = report_of "bulk" reports in
       Tables.row widths
         [ name; Tables.ms v.Sla.mean_delay; Tables.ms v.Sla.p99_delay;
           Tables.pct v.Sla.loss; Tables.pct b.Sla.loss;
           Tables.mbps b.Sla.throughput_bps ])
    scheds;
  Tables.note
    "\nWith EF policed at the CPE the schedulers are nearly\n\
     interchangeable — the paper's LLQ-style deployment is safe.";
  Tables.heading "A1b: misbehaving (unpoliced) EF flood at 110% of the link";
  let widths = [14; 13; 13; 13] in
  Tables.row widths
    ["scheduler"; "flood tput"; "victim tput"; "victim loss"];
  Tables.rule widths;
  List.iter
    (fun (name, sched) ->
       let flood, victim = a1_starvation sched in
       Tables.row widths
         [ name; Tables.mbps flood.Sla.throughput_bps;
           Tables.mbps victim.Sla.throughput_bps;
           Tables.pct victim.Sla.loss ])
    scheds;
  Tables.note
    "\nStrict priority lets an unpoliced EF flood starve everyone else\n\
     (victim throughput ~0); the weighted schedulers cap the damage at\n\
     the EF band's configured share. This is why the architecture pairs\n\
     the EF PHB with CPE policing (E6's CBQ) — the two are a unit."

(* --- A2: WRED ----------------------------------------------------------- *)

(* Overload one AF band with in-profile (AF31) and out-of-profile
   (AF33) traffic and see who WRED sacrifices. *)
let a2_cell ~wred =
  let topo = Topology.create () in
  let ids = Topology.line topo 2 ~bandwidth:2e6 ~delay:0.001 in
  let engine = Engine.create () in
  let net =
    Network.create
      ~policy:(Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched)
      ~wred engine topo
  in
  Mvpn_net.Fib.add (Network.fib net ids.(0)) Prefix.default
    { Mvpn_net.Fib.next_hop = ids.(1); cost = 1; source = Mvpn_net.Fib.Static };
  Mvpn_net.Fib.add (Network.fib net ids.(1)) Prefix.default
    { Mvpn_net.Fib.next_hop = Mvpn_net.Fib.local_delivery; cost = 0;
      source = Mvpn_net.Fib.Connected };
  let registry = Traffic.registry engine in
  Network.set_sink net ids.(1) (Traffic.sink registry);
  let rng = Mvpn_sim.Rng.create 4242 in
  let mk label dscp port rate =
    let emit =
      Traffic.sender registry ~net ~src_node:ids.(0)
        ~flow:(Mvpn_net.Flow.make ~proto:Mvpn_net.Flow.Udp ~dst_port:port
                 (Ipv4.of_string_exn "10.0.0.1")
                 (Ipv4.of_string_exn "10.1.0.1"))
        ~dscp
        ~collector:(Traffic.collector registry label)
        ()
    in
    (* Poisson so the two colours interleave randomly — tail drop's
       colour-blindness only shows without phase locking. *)
    Traffic.poisson engine (Mvpn_sim.Rng.fork rng) ~start:0.0 ~stop:30.0
      ~rate_pps:(rate /. 8000.0) ~packet_bytes:1000 emit
  in
  (* 2.6 Mb/s of AF3x into a 2 Mb/s link: the band must shed 25%. *)
  mk "af31" (Mvpn_net.Dscp.af 3 1) 1433 1_300_000.0;
  mk "af33" (Mvpn_net.Dscp.af 3 3) 1434 1_300_000.0;
  Engine.run engine;
  (Traffic.report registry "af31", Traffic.report registry "af33")

let a2 () =
  Tables.heading
    "A2: WRED drop-precedence awareness (AF band overloaded 130%)";
  let widths = [8; 12; 12; 12; 12] in
  Tables.row widths
    ["wred"; "af31 loss"; "af33 loss"; "af31 p99"; "af33 p99"];
  Tables.rule widths;
  List.iter
    (fun wred ->
       let in_profile, out_profile = a2_cell ~wred in
       Tables.row widths
         [ string_of_bool wred;
           Tables.pct in_profile.Sla.loss;
           Tables.pct out_profile.Sla.loss;
           Tables.ms in_profile.Sla.p99_delay;
           Tables.ms out_profile.Sla.p99_delay ])
    [true; false];
  Tables.note
    "\nWith WRED the out-of-profile colour (AF33, drop precedence 3)\n\
     absorbs most of the shedding and in-profile AF31 survives — the\n\
     contract the CPE remarking of E6 relies on. Without WRED the tail\n\
     drop is colour-blind: both colours lose roughly equally and the\n\
     queue runs full (higher p99)."

(* --- A3: penultimate-hop popping ---------------------------------------- *)

let a3 () =
  Tables.heading "A3: penultimate-hop popping";
  let bb = Backbone.build ~pops:12 () in
  let topo = Backbone.topology bb in
  let fecs =
    Array.to_list
      (Array.mapi (fun pop node -> (Backbone.loopback bb ~pop, node))
         (Backbone.pops bb))
  in
  let state php =
    let plane = Plane.create ~nodes:(Topology.node_count topo) in
    let ldp = Ldp.distribute ~php topo plane ~fecs in
    ignore ldp;
    let egress_entries =
      Array.fold_left
        (fun acc node ->
           acc + Mvpn_mpls.Lfib.size (Plane.lfib plane node))
        0 (Backbone.pops bb)
    in
    (Plane.total_lfib_entries plane, egress_entries,
     Plane.total_labels_allocated plane)
  in
  let widths = [8; 14; 16; 14] in
  Tables.row widths ["php"; "lfib entries"; "egress entries"; "labels"];
  Tables.rule widths;
  List.iter
    (fun php ->
       let total, egress, labels = state php in
       Tables.row widths
         [ string_of_bool php; string_of_int total; string_of_int egress;
           string_of_int labels ])
    [true; false];
  Tables.note
    "\nWith PHP the egress advertises implicit-null: one less label\n\
     binding and LFIB entry per FEC, and — more importantly — the\n\
     egress PE does a single (VPN label) lookup per packet instead of\n\
     two."

(* --- A4: shared PE-PE LSPs vs per-site-pair LSPs ------------------------- *)

let a4 () =
  Tables.heading
    "A4: RFC 2547 shared transport LSPs vs a per-site-pair LSP mesh";
  let widths = [6; 16; 16; 18] in
  Tables.row widths
    ["N"; "2547 lfib state"; "2547 labels"; "per-pair LSP labels"];
  Tables.rule widths;
  List.iter
    (fun n ->
       let bb = Backbone.build ~pops:12 () in
       let sites =
         List.init n (fun i ->
             Backbone.attach_site bb ~id:i ~name:(Printf.sprintf "s%d" i)
               ~vpn:1
               ~prefix:(Prefix.make
                          (Ipv4.of_octets 10 (i lsr 8) (i land 0xFF) 0) 24)
               ~pop:(i mod 12))
       in
       let engine = Engine.create () in
       let net = Network.create engine (Backbone.topology bb) in
       let m = Mpls_vpn.deploy ~net ~backbone:bb ~sites () in
       let metrics = Mpls_vpn.metrics m in
       (* Per-pair design point: one LSP per ordered site pair, one
          label per hop of its PE-PE shortest path. *)
       let topo = Backbone.topology bb in
       let per_pair =
         List.fold_left
           (fun acc (a : Site.t) ->
              List.fold_left
                (fun acc (b : Site.t) ->
                   if a.Site.id = b.Site.id then acc
                   else
                     match
                       Spf.shortest_path topo ~src:a.Site.pe_node
                         ~dst:b.Site.pe_node
                     with
                     | Some path -> acc + List.length path - 1
                     | None -> acc)
                acc sites)
           0 sites
       in
       Tables.row widths
         [ string_of_int n;
           string_of_int metrics.Mpls_vpn.lfib_entries;
           string_of_int metrics.Mpls_vpn.labels_allocated;
           string_of_int per_pair ])
    [10; 50; 100];
  Tables.note
    "\nThe 2547 design shares one transport LSP per PE pair across all\n\
     VPNs and distinguishes customers with the BGP-piggybacked VPN\n\
     label: its label state is flat in N. A per-site-pair LSP mesh\n\
     (the 'LSPs created to connect all members' reading of §4.3 taken\n\
     literally) re-creates the overlay's quadratic state in the core."

(* --- A5: DiffServ-aware TE sub-pool -------------------------------------- *)

let a5 () =
  Tables.heading "A5: DS-TE premium sub-pool (12-POP ring, 45 Mb/s links)";
  let run_mode ~subpool =
    let bb = Backbone.build ~pops:12 () in
    let topo = Backbone.topology bb in
    let plane =
      Mvpn_mpls.Plane.create ~nodes:(Topology.node_count topo)
    in
    let te =
      Mvpn_mpls.Rsvp_te.create ~subpool_fraction:0.4 topo plane
    in
    let pops = Backbone.pops bb in
    let class_type =
      if subpool then Mvpn_mpls.Rsvp_te.Subpool
      else Mvpn_mpls.Rsvp_te.Global_pool
    in
    let accepted = ref 0 in
    (* Ten 8 Mb/s premium demands between the same POP pair. *)
    for _ = 1 to 10 do
      match
        Mvpn_mpls.Rsvp_te.signal te ~class_type ~src:pops.(0) ~dst:pops.(6)
          ~bandwidth:8e6
      with
      | Ok _ -> incr accepted
      | Error _ -> ()
    done;
    let max_premium_share =
      List.fold_left
        (fun acc (l : Topology.link) ->
           Float.max acc
             (Mvpn_mpls.Rsvp_te.subpool_reserved te l /. l.Topology.bandwidth))
        0.0 (Topology.links topo)
    in
    let max_total =
      List.fold_left
        (fun acc l ->
           Float.max acc (Mvpn_mpls.Rsvp_te.reserved_fraction te l))
        0.0 (Topology.links topo)
    in
    (!accepted, max_premium_share, max_total)
  in
  let widths = [12; 10; 18; 14] in
  Tables.row widths
    ["mode"; "accepted"; "max EF share/link"; "max link load"];
  Tables.rule widths;
  List.iter
    (fun (name, subpool) ->
       let accepted, ef_share, total = run_mode ~subpool in
       Tables.row widths
         [ name; string_of_int accepted;
           (if subpool then Tables.pct ef_share else "untracked");
           Tables.pct total ])
    [("global pool", false); ("ds-te 40%", true)];
  Tables.note
    "\nWithout the sub-pool, EF tunnels can fill a link to 100%% and the\n\
     EF delay bound dies of self-queueing. DS-TE caps the premium class\n\
     at 40%% per link, spreading further demands instead — the refined\n\
     version of 'combining diffserv and MPLS' (§3.1)."

(* --- A6: shaping vs policing at the CPE --------------------------------- *)

let a6 () =
  Tables.heading
    "A6: CPE shaping vs policing — bursty source against a 1 Mb/s contract";
  (* A Pareto-bursty source offering ~1.5 Mb/s against a 1 Mb/s
     contract, measured at the contract boundary. *)
  let run_mode mode =
    let engine = Engine.create () in
    let collector = Mvpn_qos.Sla.collector () in
    let sent = ref 0 in
    let deliver p =
      Mvpn_qos.Sla.on_receive collector ~clock:(Engine.clock engine) p
    in
    let submit =
      match mode with
      | `Shape ->
        let sh =
          Mvpn_qos.Shaper.create engine ~rate_bps:1e6 ~burst_bytes:15_000.0
            ~queue_bytes:200_000 ~release:deliver
        in
        fun p -> ignore (Mvpn_qos.Shaper.offer sh p)
      | `Police ->
        let meter =
          Mvpn_qos.Meter.srtcm ~cir_bps:1e6 ~cbs_bytes:15_000.0
            ~ebs_bytes:0.0
        in
        fun p ->
          (match
             Mvpn_qos.Meter.meter meter ~now:(Engine.now engine)
               ~bytes:p.Mvpn_net.Packet.size
           with
           | Mvpn_qos.Meter.Green | Mvpn_qos.Meter.Yellow -> deliver p
           | Mvpn_qos.Meter.Red -> ())
    in
    let rng = Mvpn_sim.Rng.create 808 in
    let emit size =
      incr sent;
      let now = Engine.now engine in
      let p =
        Mvpn_net.Packet.make ~size ~now
          (Mvpn_net.Flow.make
             (Mvpn_net.Ipv4.of_octets 10 0 0 1)
             (Mvpn_net.Ipv4.of_octets 10 1 0 1))
      in
      Mvpn_qos.Sla.on_send collector ~clock:(Engine.clock engine) ~bytes:size;
      submit p
    in
    Mvpn_core.Traffic.pareto_bursts engine rng ~start:0.0 ~stop:30.0
      ~burst_rate:6.0 ~mean_burst_bytes:30_000.0 emit;
    Engine.run engine;
    Mvpn_qos.Sla.report collector
  in
  let widths = [10; 10; 12; 12; 12] in
  Tables.row widths ["mode"; "loss"; "mean ms"; "p99 ms"; "tput Mb/s"];
  Tables.rule widths;
  List.iter
    (fun (name, mode) ->
       let r = run_mode mode in
       Tables.row widths
         [ name; Tables.pct r.Mvpn_qos.Sla.loss;
           Tables.ms r.Mvpn_qos.Sla.mean_delay;
           Tables.ms r.Mvpn_qos.Sla.p99_delay;
           Tables.mbps r.Mvpn_qos.Sla.throughput_bps ])
    [("shape", `Shape); ("police", `Police)];
  Tables.note
    "\nThe classic trade: shaping buffers the burst (delay up, loss only\n\
     when the buffer fills), policing drops it on the spot (loss up,\n\
     no added delay). TCP-like elastic traffic prefers the shaper; the\n\
     EF class must never see either — that is what CBQ admission at the\n\
     CPE (E6) is for."

let run () =
  a1 ();
  a2 ();
  a3 ();
  a4 ();
  a5 ();
  a6 ()
