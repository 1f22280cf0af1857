(* mvpn — command-line front end; [mvpn SUBCOMMAND --help] documents
   each subcommand.

     topo, deploy, plan, provision   the backbone, a VPN deployment,
                                     capacity planning, a portfolio
     run, stats, slo, chaos          one sequential run of the mixed
                                     workload, reported four ways
     par, timeline, soak             the same run, sequential or sharded
     fail                            a scripted core-link failover

   Every subcommand that runs traffic goes through Mvpn_par.Runner: its
   flags make one Runner.config, and whatever it arms before the
   workload is the config's prepare_replica. *)

open Cmdliner
open Mvpn_core
module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Sla = Mvpn_qos.Sla
module Runner = Mvpn_par.Runner
module Harness = Mvpn_resilience.Harness
module Telemetry = Mvpn_telemetry
module Json = Mvpn_telemetry.Json

let print_json v = print_string (Json.to_string v)

(* Per service class sent/received, as [par] and [soak] print it. *)
let classes_json classes =
  Json.(
    Obj
      (List.map
         (fun (label, sent, received) ->
            (label, Obj [ ("sent", Int sent); ("received", Int received) ]))
         classes))

(* --- shared arguments -------------------------------------------------- *)

(* Numeric inputs that would crash, hang or silently degenerate a run
   are rejected at parse time, so misuse surfaces as cmdliner's
   usage-error exit (124), never as an exception trace (125). *)

(* Finite float, strictly positive or, with [zero], non-negative. *)
let float_conv ~zero =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && (v > 0.0 || (zero && v = 0.0)) -> Ok v
    | Some _ ->
      Error
        (`Msg
           (if zero then "must be a finite non-negative number"
            else "must be a finite positive number"))
    | None -> Error (`Msg (Printf.sprintf "invalid number %S" s))
  in
  Arg.conv ~docv:"NUM" (parse, Format.pp_print_float)

let pos_float_conv = float_conv ~zero:false
let nonneg_float_conv = float_conv ~zero:true

(* Integer in [lo, hi] ([hi] unbounded when absent). *)
let int_conv ~what ~lo ?hi () =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
    | Some v when v < lo || (match hi with Some h -> v > h | None -> false)
      ->
      Error
        (`Msg
           (match hi with
            | Some h -> Printf.sprintf "%s must be in [%d, %d]" what lo h
            | None -> Printf.sprintf "%s must be >= %d" what lo))
    | Some v -> Ok v
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* The backbone is a ring (at least 3 POPs) and numbers POP loopbacks
   in one octet (at most 256). *)
let pops_arg =
  Arg.(value & opt (int_conv ~what:"--pops" ~lo:3 ~hi:256 ()) 12
       & info ["pops"] ~docv:"N" ~doc:"Number of POPs (3-256).")

let vpns_arg =
  Arg.(value & opt (int_conv ~what:"--vpns" ~lo:0 ()) 2
       & info ["vpns"] ~docv:"V" ~doc:"Number of VPNs (at least 0).")

(* Site k's prefix is 10.k.0.0/16, so k needs one octet. *)
let sites_arg =
  Arg.(value & opt (int_conv ~what:"--sites" ~lo:0 ~hi:256 ()) 4
       & info ["sites"] ~docv:"K" ~doc:"Sites per VPN (0-256).")

let policy_conv =
  Arg.enum
    [ ("best-effort", Qos_mapping.Best_effort);
      ("diffserv", Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched);
      ("diffserv-strict", Qos_mapping.Diffserv Qos_mapping.strict_sched) ]

let policy_arg =
  Arg.(value
       & opt policy_conv
           (Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched)
       & info ["policy"] ~docv:"POLICY"
         ~doc:"Forwarding policy: best-effort, diffserv, diffserv-strict.")

let load_arg =
  Arg.(value & opt nonneg_float_conv 0.9 & info ["load"] ~docv:"L"
         ~doc:"Offered load as a fraction of the access rate (finite, \
               non-negative).")

let duration_arg =
  Arg.(value & opt pos_float_conv 30.0 & info ["duration"] ~docv:"SEC"
         ~doc:"Workload duration in simulated seconds (finite, positive).")

let overlay_arg =
  Arg.(value & flag & info ["overlay"]
         ~doc:"Deploy the IPSec overlay baseline instead of the MPLS VPN.")

let te_arg =
  Arg.(value & flag & info ["te"] ~doc:"Signal RSVP-TE tunnels between PEs.")

let seed_arg =
  Arg.(value & opt int 11 & info ["seed"] ~docv:"SEED"
         ~doc:"Deterministic simulation seed.")

(* The scenario a traffic subcommand runs: [shape_term] from the flags
   all of them share, [config_term] with the rest of the common set. *)
let shape_term =
  let make pops vpns sites_per_vpn load seed =
    { Runner.default_config with pops; vpns; sites_per_vpn; load; seed }
  in
  Term.(const make $ pops_arg $ vpns_arg $ sites_arg $ load_arg $ seed_arg)

let config_term =
  let make (cfg : Runner.config) policy duration use_te =
    { cfg with policy; duration; use_te }
  in
  Term.(const make $ shape_term $ policy_arg $ duration_arg $ te_arg)

(* --- shared run path ---------------------------------------------------- *)

(* Run [f] with telemetry on. Each run owns its registry scope, so
   this process's registry holds that run's measurements. *)
let with_telemetry f =
  Telemetry.Control.enable ();
  let r = f () in
  Telemetry.Control.disable ();
  r

(* One shard runs the sequential replica; more run partitioned. *)
let run_config (cfg : Runner.config) =
  if cfg.shards <= 1 then Runner.run_sequential cfg
  else Runner.run_parallel cfg

(* A sequential run that also hands back its replica, for the reports
   that read the scenario. An SLO engine attached to the replica has
   its windows closed at the horizon. *)
let run_replica (cfg : Runner.config) =
  let replica = ref None in
  let prepare sc =
    replica := Some sc;
    Option.iter (fun f -> f sc) cfg.prepare_replica
  in
  ignore (Runner.run_sequential { cfg with prepare_replica = Some prepare });
  let sc = Option.get !replica in
  Option.iter
    (fun slo ->
       Telemetry.Slo.advance slo ~time:(Engine.now (Scenario.engine sc)))
    (Network.slo (Scenario.network sc));
  sc

(* The merged replay's SLO table, as [par] and [soak] print it, then
   the verdict. *)
let print_conformance slo verdict =
  Printf.printf "\nSLA conformance (merged fate replay):\n";
  Telemetry.Slo.pp Format.std_formatter slo;
  Format.pp_print_flush Format.std_formatter ();
  Printf.printf "overall: %s\n" verdict

(* Every sim-scope series in the registry, by name. Host-scope rings
   (GC churn) are real but machine-dependent, so they stay out of the
   exports — which is what keeps the bytes identical for every shard
   count. *)
let sim_series () =
  List.filter_map
    (fun name ->
       match Telemetry.Registry.find_series name with
       | Some s when Telemetry.Timeseries.scope s = Telemetry.Timeseries.Sim ->
         Some (name, s)
       | _ -> None)
    (Telemetry.Registry.names ())

(* --- topo --------------------------------------------------------------- *)

let topo_cmd =
  let run pops =
    let bb = Backbone.build ~pops () in
    let topo = Backbone.topology bb in
    Printf.printf "backbone: %d POPs, %d unidirectional links\n" pops
      (Topology.link_count topo);
    List.iter
      (fun (l : Topology.link) ->
         if l.Topology.src < l.Topology.dst then
           Printf.printf "  %-4s <-> %-4s  %5.1f Mb/s  %4.1f ms\n"
             (Topology.node_name topo l.Topology.src)
             (Topology.node_name topo l.Topology.dst)
             (l.Topology.bandwidth /. 1e6)
             (l.Topology.delay *. 1e3))
      (Topology.links topo);
    Array.iteri
      (fun pop node ->
         Printf.printf "  pop %2d = node %2d, loopback %s\n" pop node
           (Mvpn_net.Prefix.to_string (Backbone.loopback bb ~pop)))
      (Backbone.pops bb)
  in
  Cmd.v (Cmd.info "topo" ~doc:"Describe the reference backbone topology.")
    Term.(const run $ pops_arg)

(* --- deploy ------------------------------------------------------------- *)

let deploy_cmd =
  let run pops vpns sites_per_vpn overlay seed =
    let sc =
      Scenario.build ~pops ~vpns ~sites_per_vpn ~seed
        (if overlay then
           Scenario.Overlay_deployment
             { policy = Qos_mapping.Best_effort;
               cipher = Mvpn_ipsec.Crypto.Des; copy_tos = true }
         else
           Scenario.Mpls_deployment
             { policy = Qos_mapping.Best_effort; use_te = false })
    in
    (match Scenario.mpls sc with
     | Some m ->
       let x = Mpls_vpn.metrics m in
       Printf.printf
         "MPLS VPN deployed: %d sites in %d VPNs\n\
          \  VRFs               %d\n\
          \  VPNv4 routes       %d\n\
          \  BGP sessions       %d\n\
          \  LFIB entries       %d\n\
          \  labels allocated   %d\n\
          \  control messages   %d\n\
          \  operator touches   %d\n"
         x.Mpls_vpn.sites x.Mpls_vpn.vpns x.Mpls_vpn.vrf_count
         x.Mpls_vpn.vpnv4_routes x.Mpls_vpn.bgp_sessions
         x.Mpls_vpn.lfib_entries x.Mpls_vpn.labels_allocated
         x.Mpls_vpn.control_messages x.Mpls_vpn.provisioning_touches
     | None -> ());
    match Scenario.overlay sc with
    | Some o ->
      let x = Overlay.metrics o in
      Printf.printf
        "Overlay VPN deployed: %d sites in %d VPNs\n\
         \  virtual circuits   %d\n\
         \  directional tunnels %d\n\
         \  IKE messages       %d\n\
         \  operator touches   %d\n"
        x.Overlay.sites x.Overlay.vpns x.Overlay.vcs x.Overlay.tunnels
        x.Overlay.control_messages x.Overlay.provisioning_touches
    | None -> ()
  in
  Cmd.v
    (Cmd.info "deploy"
       ~doc:"Provision a VPN service and print its control-plane state.")
    Term.(const run $ pops_arg $ vpns_arg $ sites_arg $ overlay_arg
          $ seed_arg)

(* --- run ---------------------------------------------------------------- *)

let print_reports sc =
  Printf.printf "%-15s %6s %6s %10s %10s %9s %8s  %s\n" "class" "sent"
    "recv" "mean ms" "p99 ms" "jit ms" "loss" "SLA";
  List.iter
    (fun (cls, (r : Sla.report)) ->
       let spec =
         match
           List.find_opt (fun (n, _, _) -> n = cls) Scenario.service_classes
         with
         | Some (_, _, s) -> s
         | None -> Sla.best_effort_spec
       in
       Printf.printf "%-15s %6d %6d %10.2f %10.2f %9.2f %7.2f%%  %s\n" cls
         r.Sla.sent r.Sla.received
         (r.Sla.mean_delay *. 1e3)
         (r.Sla.p99_delay *. 1e3)
         (r.Sla.jitter *. 1e3)
         (r.Sla.loss *. 100.0)
         (if Sla.complies spec r then "ok"
          else String.concat "; " (Sla.check spec r)))
    (Scenario.class_reports sc)

let run_cmd =
  let run (cfg : Runner.config) =
    (* Wrap every CE sink with usage accounting. *)
    let acct = Accounting.create () in
    let prepare sc =
      Array.iter
        (fun (s : Site.t) ->
           Network.set_sink (Scenario.network sc) s.Site.ce_node
             (Accounting.sink acct (Traffic.sink (Scenario.registry sc))))
        (Scenario.sites sc)
    in
    let sc = run_replica { cfg with prepare_replica = Some prepare } in
    print_reports sc;
    Printf.printf "\nmax core utilization: %.1f%%   core loss: %.2f%%\n"
      (Scenario.max_core_utilization sc *. 100.0)
      (Scenario.core_loss_fraction sc *. 100.0);
    Printf.printf "\nUsage-based billing (default tariff):\n";
    List.iter
      (fun vpn -> Accounting.pp_invoice Format.std_formatter acct ~vpn)
      (List.init cfg.vpns (fun v -> v + 1));
    Format.pp_print_flush Format.std_formatter ()
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the mixed voice/transactional/bulk workload and report \
             per-class SLAs.")
    Term.(const run $ config_term)

(* --- stats -------------------------------------------------------------- *)

let stats_cmd =
  let run cfg json trace_events event_entries =
    let sc = with_telemetry (fun () -> run_replica cfg) in
    if json then
      print_json (Telemetry.Registry.to_json ~trace_events ~event_entries ())
    else begin
      print_reports sc;
      Printf.printf "\n";
      Telemetry.Registry.pp ~trace_events Format.std_formatter ();
      Format.pp_print_flush Format.std_formatter ()
    end
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the telemetry registry as one JSON object instead \
                 of text.")
  in
  let trace_arg =
    Arg.(value & opt (int_conv ~what:"--trace" ~lo:0 ()) 16
         & info ["trace"; "trace-events"] ~docv:"N"
           ~doc:"Hop-trace tail length to include in the dump (at least 0).")
  in
  let events_arg =
    Arg.(value & opt (int_conv ~what:"--events" ~lo:0 ()) 256
         & info ["events"] ~docv:"N"
           ~doc:"Event-log tail length to include in the JSON dump (at \
                 least 0).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run the mixed workload with telemetry enabled and dump every \
             counter, gauge, histogram and the hop-trace tail.")
    Term.(const run $ config_term $ json_arg $ trace_arg $ events_arg)

(* --- slo ---------------------------------------------------------------- *)

let slo_cmd =
  let run (cfg : Runner.config) json (fail_at, repair_at) chaos_seed =
    (* Optional mid-run core failure (and repair + reconvergence), to
       watch the conformance engine catch the churn. *)
    let schedule_failure sc =
      let at t f =
        Option.iter (fun t -> Engine.schedule (Scenario.engine sc) ~delay:t f) t
      in
      match (fail_at, Scenario.first_pair_core_link sc) with
      | None, _ -> ()
      | Some _, None ->
        prerr_endline "mvpn slo: sites 0 and 1 share a PE; no core link to fail"
      | Some _, Some (u, v) ->
        let set_core up =
          Topology.set_duplex_state (Network.topology (Scenario.network sc))
            u v up
        in
        at fail_at (fun () -> set_core false);
        at repair_at (fun () ->
            set_core true;
            Option.iter (fun m -> ignore (Mpls_vpn.reconverge m))
              (Scenario.mpls sc))
    in
    let prepare sc =
      (* --chaos SEED: arm the full resilience stack (IP fallback, FRR
         bypasses, backoff recovery) plus the seeded fault plan, and
         judge conformance under that storm. *)
      Option.iter
        (fun seed ->
           ignore
             (Harness.arm ~frr:true ~fallback:true ~seed
                ~duration:cfg.duration sc))
        chaos_seed;
      ignore (Scenario.attach_slo sc);
      schedule_failure sc
    in
    let sc =
      with_telemetry (fun () ->
          run_replica { cfg with prepare_replica = Some prepare })
    in
    let net = Scenario.network sc in
    let now = Engine.now (Scenario.engine sc) in
    let slo = Option.get (Network.slo net) in
    let ok = Telemetry.Slo.in_budget slo in
    let events = Telemetry.Registry.events () in
    if json then
      print_json
        Json.(
          envelope
            [ ("now", Float now); ("in_budget", Bool ok);
              ("objectives", Telemetry.Slo.to_json slo);
              ("events", Telemetry.Event_log.json_entries events);
              ("spans",
               match Network.span_sampler net with
               | Some s -> Telemetry.Span.sampler_to_json s
               | None -> List []) ])
    else begin
      Printf.printf "SLA conformance after %.1fs (per vpn/band):\n" now;
      Telemetry.Slo.pp Format.std_formatter slo;
      Format.pp_print_flush Format.std_formatter ();
      Printf.printf "\nevents (%d recorded):\n"
        (Telemetry.Event_log.recorded events);
      List.iter
        (fun e ->
           Format.printf "  %a@." Telemetry.Event_log.pp_entry e)
        (Telemetry.Event_log.entries events);
      Format.pp_print_flush Format.std_formatter ();
      Printf.printf "\noverall: %s\n"
        (if ok then "all objectives in budget"
         else "OUT OF BUDGET")
    end;
    if not ok then exit 1
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit conformance, events and sampled spans as one JSON \
                 object.")
  in
  let fail_arg =
    Arg.(value & opt (some pos_float_conv) None & info ["fail-at"] ~docv:"SEC"
           ~doc:"Fail the first core link on the path from VPN 1's site 0 \
                 to its site 1 at this time (finite, positive).")
  in
  let repair_arg =
    Arg.(value & opt (some pos_float_conv) None & info ["repair-at"]
           ~docv:"SEC"
           ~doc:"Repair the failed link (and reconverge) at this time \
                 (finite, after $(b,--fail-at)).")
  in
  (* A repair must undo a failure that comes before it. *)
  let outage_term =
    let check fail_at repair_at =
      match (fail_at, repair_at) with
      | None, Some _ -> `Error (true, "--repair-at needs --fail-at")
      | Some f, Some r when r <= f ->
        `Error (true, "--repair-at must be later than --fail-at")
      | _ -> `Ok (fail_at, repair_at)
    in
    Term.(ret (const check $ fail_arg $ repair_arg))
  in
  let chaos_arg =
    Arg.(value & opt (some int) None & info ["chaos"] ~docv:"SEED"
           ~doc:"Run under a seeded chaos fault plan with fast reroute, IP \
                 fallback and backoff recovery armed; judge the SLOs under \
                 that storm.")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:"Run the mixed workload under per-(vpn, band) SLOs and report \
             conformance, error budgets, burn rates and the event log. \
             Exit status is the contract: 0 when every objective is in \
             budget, 1 when any objective is out of budget (124 on \
             command-line errors, per cmdliner).")
    Term.(const run $ config_term $ json_arg $ outage_term $ chaos_arg)

(* --- chaos -------------------------------------------------------------- *)

let chaos_cmd =
  let run (cfg : Runner.config) events json no_frr no_fallback =
    let h = ref None in
    let prepare sc =
      h :=
        Some
          (Harness.arm ~events ~frr:(not no_frr) ~fallback:(not no_fallback)
             ~seed:cfg.seed ~duration:cfg.duration sc)
    in
    ignore
      (with_telemetry (fun () ->
           Runner.run_sequential { cfg with prepare_replica = Some prepare }));
    let h = Option.get !h in
    if json then print_json (Harness.summary_json h)
    else begin
      Harness.pp_summary Format.std_formatter h;
      Format.pp_print_flush Format.std_formatter ()
    end
  in
  let config_term =
    Term.(const (fun (cfg : Runner.config) duration -> { cfg with duration })
          $ shape_term $ duration_arg)
  in
  let events_arg =
    Arg.(value & opt (int_conv ~what:"--events" ~lo:0 ()) 12
         & info ["events"] ~docv:"N"
           ~doc:"Number of faults in the seeded plan (at least 0).")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the replayable plan and every terminal fate as one \
                 JSON object. Byte-identical for equal seeds.")
  in
  let no_frr_arg =
    Arg.(value & flag & info ["no-frr"]
           ~doc:"Disarm MPLS fast reroute (baseline regime).")
  in
  let no_fallback_arg =
    Arg.(value & flag & info ["no-fallback"]
           ~doc:"Disarm best-effort IP fallback at the ingress PE.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the mixed workload under a seeded fault storm — link \
             flaps, node outages, loss and corruption bursts, \
             control-plane session drops — with fast reroute, IP fallback \
             and backoff recovery armed, and account every packet's fate.")
    Term.(const run $ config_term $ events_arg $ json_arg $ no_frr_arg
          $ no_fallback_arg)

(* --- par ---------------------------------------------------------------- *)

let par_cmd =
  let run (cfg : Runner.config) shards core_delay seq json =
    let cfg = { cfg with shards; core_delay } in
    let o =
      with_telemetry (fun () ->
          if seq then Runner.run_sequential cfg else Runner.run_parallel cfg)
    in
    let open Runner in
    if json then
      print_json
        Json.(
          envelope
            [ ("shards", Int o.shards);
              ("sizes",
               List (Array.to_list (Array.map (fun n -> Int n) o.sizes)));
              ("cut_links", Int o.cut_links); ("lookahead", Bool o.lookahead);
              ("delivered", Int o.delivered); ("dropped", Int o.dropped);
              ("events", Int o.events); ("scheduled", Int o.scheduled);
              ("exchanged", Int o.exchanged); ("leftover", Int o.leftover);
              ("overflow", Int o.overflow);
              ("classes", classes_json o.classes);
              ("slo",
               Obj
                 [ ("in_budget", Bool (Telemetry.Slo.in_budget o.slo));
                   ("violations", Int (Telemetry.Slo.violation_count o.slo));
                   ("objectives", Telemetry.Slo.to_json o.slo) ]);
              ("registry", o.registry_json) ])
    else begin
      Printf.printf
        "partitioned run: %d shard(s), %d cut link(s), %s sync\n"
        o.shards o.cut_links
        (if o.lookahead then "lookahead-window" else "epoch-barrier");
      Printf.printf "  nodes per shard   %s\n"
        (String.concat "/"
           (Array.to_list (Array.map string_of_int o.sizes)));
      Printf.printf "  delivered         %d\n  dropped           %d\n"
        o.delivered o.dropped;
      Printf.printf "  events run        %d (scheduled %d)\n" o.events
        o.scheduled;
      Printf.printf
        "  cross-shard       %d packet(s), %d past horizon, %d overflow\n"
        o.exchanged o.leftover o.overflow;
      Printf.printf "  %-15s %8s %8s\n" "class" "sent" "recv";
      List.iter
        (fun (l, s, r) -> Printf.printf "  %-15s %8d %8d\n" l s r)
        o.classes;
      print_conformance o.slo
        (if Telemetry.Slo.in_budget o.slo then "all objectives in budget"
         else "OUT OF BUDGET")
    end
  in
  let shards_arg =
    Arg.(value & opt (int_conv ~what:"--shards" ~lo:1 ()) 4
         & info ["shards"] ~docv:"K"
           ~doc:"Number of parallel shards (domains). Clamped to the \
                 number of POP regions; 1 degenerates to a sequential \
                 run through the same machinery.")
  in
  let core_delay_arg =
    Arg.(value & opt (some nonneg_float_conv) None
         & info ["core-delay"] ~docv:"SEC"
           ~doc:"Override the POP-POP propagation delay (the \
                 synchronization lookahead; finite, non-negative). 0 \
                 forces the epoch-barrier fallback.")
  in
  let seq_arg =
    Arg.(value & flag & info ["seq"]
           ~doc:"Run the identical build/workload sequentially in one \
                 domain (baseline for totals comparison).")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the outcome, per-class sums, SLO conformance and \
                 the merged telemetry registry as one JSON object. \
                 Byte-identical for equal seeds at every shard count.")
  in
  Cmd.v
    (Cmd.info "par"
       ~doc:"Run the mixed workload on the multicore partitioned runner: \
             the backbone is cut into shards (one OCaml domain each, \
             conservatively synchronized over the cut links) and the \
             per-shard telemetry merges into one snapshot whose totals \
             are identical to the sequential run's, for every shard \
             count.")
    Term.(const run $ config_term $ shards_arg $ core_delay_arg $ seq_arg
          $ json_arg)

(* --- timeline ----------------------------------------------------------- *)

let timeline_cmd =
  let run (cfg : Runner.config) shards interval json csv =
    let o =
      with_telemetry (fun () ->
          run_config { cfg with shards; sample_interval = Some interval })
    in
    let all =
      List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
        (List.map
           (fun (name, s) ->
              (name, Telemetry.Timeseries.level s,
               Telemetry.Timeseries.samples s))
           (sim_series ())
         @ List.map (fun (name, samples) -> (name, 0, samples))
             (Sampler.burn_series ()))
    in
    if json then
      print_json
        Json.(
          let pair (t, v) = List [ Float t; Float v ] in
          envelope
            [ ("interval", Float interval);
              ("horizon", Float o.Runner.horizon);
              ("seed", Int cfg.seed);
              ("series",
               Obj
                 (List.map
                    (fun (name, level, samples) ->
                       ( name,
                         Obj
                           [ ("level", Int level);
                             ("samples",
                              List (Array.to_list (Array.map pair samples))) ]
                       ))
                    all)) ])
    else if csv then begin
      (* Values render exactly as in the JSON export. *)
      let num v = Json.to_string (Json.Float v) in
      print_string "time,series,value\n";
      List.iter
        (fun (name, _, samples) ->
           Array.iter
             (fun (t, v) -> Printf.printf "%s,%s,%s\n" (num t) name (num v))
             samples)
        all
    end
    else begin
      Printf.printf
        "timeline: %d series, interval %.3gs, horizon %.3gs \
         (delivered %d, dropped %d)\n\n"
        (List.length all) interval o.Runner.horizon o.Runner.delivered
        o.Runner.dropped;
      Printf.printf "  %-26s %6s %5s %12s %12s %12s\n"
        "series" "n" "lvl" "min" "mean" "max";
      List.iter
        (fun (name, level, samples) ->
           let n = Array.length samples in
           if n = 0 then
             Printf.printf "  %-26s %6d %5d %12s %12s %12s\n"
               name 0 level "-" "-" "-"
           else
             let mn, mx, sum =
               Array.fold_left
                 (fun (mn, mx, sum) (_, v) ->
                    ((if v < mn then v else mn), (if v > mx then v else mx),
                     sum +. v))
                 (infinity, neg_infinity, 0.0) samples
             in
             Printf.printf "  %-26s %6d %5d %12.4g %12.4g %12.4g\n"
               name n level mn (sum /. float_of_int n) mx)
        all
    end
  in
  let shards_arg =
    Arg.(value & opt (int_conv ~what:"--shards" ~lo:1 ()) 1
         & info ["shards"] ~docv:"K"
           ~doc:"Shard (domain) count; 1 runs the sequential replica. The \
                 exported series are byte-identical at every K.")
  in
  let interval_arg =
    Arg.(value & opt pos_float_conv Sampler.default_interval
         & info ["interval"] ~docv:"SEC"
           ~doc:"Sampling interval in simulated seconds (finite, positive).")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit every sim-scope time series as one JSON object. \
                 Byte-identical for equal seeds at every shard count.")
  in
  let csv_arg =
    Arg.(value & flag & info ["csv"]
           ~doc:"Emit the series in long form: time,series,value.")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Run the mixed workload with the timeline sampler armed and \
             export the recorded time series — per-link utilization, \
             per-band queue depth and drops, per-(vpn, band) SLO burn \
             material — as a table, JSON or CSV. Series ride fixed-size \
             decimating rings, so memory stays bounded at any horizon.")
    Term.(const run $ config_term $ shards_arg $ interval_arg $ json_arg
          $ csv_arg)

(* --- soak --------------------------------------------------------------- *)

let soak_cmd =
  let run (cfg : Runner.config) shards hours chaos audit_interval
      snapshot_interval segments fail_fast json =
    let duration = hours *. 3600.0 in
    let cfg =
      { cfg with
        shards; duration; sample_interval = Some snapshot_interval;
        diurnal = Some segments }
    in
    (* The storm is drawn once and closed over by every replica, which
       the soak prepares identically — sequential, or each shard. Under
       --fail-fast the auditor raises its first violation out of the
       run: report it and exit 1, the same status a counted violation
       gets. *)
    let storm, o =
      try
        with_telemetry (fun () ->
            let storm =
              Option.map
                (fun cseed ->
                   ( cseed,
                     Harness.soak_storm ~seed:cseed ~duration (fun () ->
                         Runner.build cfg) ))
                chaos
            in
            let prepare =
              Harness.soak_replica ?storm ~audit:(audit_interval, fail_fast)
                ~duration
            in
            (storm, run_config { cfg with prepare_replica = Some prepare }))
      with Mvpn_resilience.Audit.Violation (invariant, detail) ->
        Printf.eprintf "soak: invariant %s violated: %s\n" invariant detail;
        exit 1
    in
    let replicas = max 1 o.Runner.shards in
    let count = Telemetry.Registry.snapshot_counter o.Runner.registry in
    let audit_ticks = count "audit.ticks" / replicas in
    let audit_violations = count "audit.violations" in
    (* Streamed snapshot count: the longest sim-scope series the
       timeline sampler recorded (decimating rings bound it). *)
    let snapshots =
      List.fold_left
        (fun acc (_, s) ->
           max acc (Array.length (Telemetry.Timeseries.samples s)))
        0 (sim_series ())
    in
    let open Runner in
    if json then begin
      (* Only shard-invariant material: equal seeds must give these
         exact bytes at every --shards K. *)
      print_json
        Json.(
          envelope
            [ ("hours", Float hours); ("duration", Float duration);
              ("seed", Int cfg.seed); ("load", Float cfg.load);
              ("segments", Int segments);
              ("chaos",
               match storm with
               | Some (cseed, plan) ->
                 Obj
                   [ ("seed", Int cseed);
                     ("plan", Mvpn_resilience.Chaos.plan_json plan) ]
               | None -> Null);
              ("delivered", Int o.delivered); ("dropped", Int o.dropped);
              ("classes", classes_json o.classes);
              ("slo",
               Obj
                 [ ("in_budget", Bool (Telemetry.Slo.in_budget o.slo));
                   ("violations", Int (Telemetry.Slo.violation_count o.slo)) ]);
              ("audit",
               Obj
                 [ ("interval", Float audit_interval);
                   ("ticks", Int audit_ticks);
                   ("violations", Int audit_violations) ]);
              ("snapshots", Int snapshots) ])
    end
    else begin
      Printf.printf
        "soak: %.3g h simulated (%.6gs), seed %d, %d replica(s)\n" hours
        duration cfg.seed replicas;
      (match storm with
       | Some (cseed, plan) ->
         Printf.printf "  chaos seed %d: %d topology faults\n" cseed
           (List.length plan)
       | None -> Printf.printf "  chaos: off\n");
      Printf.printf "  delivered         %d\n  dropped           %d\n"
        o.delivered o.dropped;
      Printf.printf "  audit ticks       %d (interval %.3gs)\n" audit_ticks
        audit_interval;
      Printf.printf "  audit violations  %d\n" audit_violations;
      List.iter
        (fun name ->
           let prefix = "audit.violation." in
           if String.starts_with ~prefix name && name <> prefix then
             Printf.printf "    %-24s %d\n" name (count name))
        (Telemetry.Registry.names ());
      Printf.printf "  snapshots         %d (interval %.3gs)\n" snapshots
        snapshot_interval;
      print_conformance o.slo
        (if audit_violations = 0 then "all invariants held"
         else "INVARIANT VIOLATIONS")
    end;
    if audit_violations <> 0 then exit 1
  in
  let shards_arg =
    Arg.(value & opt (int_conv ~what:"--shards" ~lo:1 ()) 1
         & info ["shards"] ~docv:"K"
           ~doc:"Shard (domain) count; 1 runs the sequential replica. \
                 The JSON envelope is byte-identical at every K.")
  in
  let hours_arg =
    Arg.(value & opt pos_float_conv 0.1 & info ["hours"] ~docv:"H"
           ~doc:"Simulated soak length in hours (finite, positive).")
  in
  let chaos_arg =
    Arg.(value & opt (some int) None & info ["chaos"] ~docv:"SEED"
           ~doc:"Arm fast reroute, IP fallback, backoff recovery and a \
                 seeded topology-only fault storm (link flaps, node \
                 outages, session drops) for the whole soak.")
  in
  let audit_interval_arg =
    Arg.(value
         & opt pos_float_conv Mvpn_resilience.Audit.default_interval
         & info ["audit-interval"] ~docv:"SEC"
           ~doc:"Invariant audit interval in simulated seconds (finite, \
                 positive).")
  in
  let snapshot_interval_arg =
    Arg.(value & opt pos_float_conv Sampler.default_interval
         & info ["snapshot-interval"] ~docv:"SEC"
           ~doc:"Streaming telemetry snapshot interval in simulated \
                 seconds (finite, positive).")
  in
  let segments_arg =
    Arg.(value & opt (int_conv ~what:"--segments" ~lo:1 ()) 8
         & info ["segments"] ~docv:"N"
           ~doc:"Diurnal load-envelope segments over the soak.")
  in
  let fail_fast_arg =
    Arg.(value & flag & info ["fail-fast"]
           ~doc:"Abort on the first invariant violation instead of \
                 counting them to the end.")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the soak envelope — inputs, chaos plan, traffic \
                 totals, SLO verdict, audit tallies — as one JSON \
                 object. Byte-identical for equal seeds at every shard \
                 count.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Long-horizon soak: hours of simulated mixed traffic under a \
             diurnal load envelope, optionally under a seeded chaos \
             storm, with the streaming invariant auditor and timeline \
             sampler armed on every replica. Exit status is the \
             contract: 0 when every audited invariant held, 1 on any \
             violation (124 on command-line errors, per cmdliner).")
    Term.(const run $ shape_term $ shards_arg $ hours_arg $ chaos_arg
          $ audit_interval_arg $ snapshot_interval_arg $ segments_arg
          $ fail_fast_arg $ json_arg)

(* --- fail --------------------------------------------------------------- *)

let fail_cmd =
  let run pops seed =
    let sc =
      Scenario.build ~pops ~vpns:1 ~sites_per_vpn:2 ~seed
        (Scenario.Mpls_deployment
           { policy = Qos_mapping.Best_effort; use_te = false })
    in
    let a = Scenario.site sc ~vpn:1 ~idx:0 in
    let b = Scenario.site sc ~vpn:1 ~idx:1 in
    let net = Scenario.network sc in
    let engine = Scenario.engine sc in
    let delivered = ref 0 in
    Network.set_sink net b.Site.ce_node (fun _ -> incr delivered);
    let send () =
      let p =
        Mvpn_net.Packet.make ~vpn:1 ~now:(Engine.now engine)
          (Mvpn_net.Flow.make (Site.host a 1) (Site.host b 1))
      in
      Network.inject net a.Site.ce_node p;
      Engine.run engine
    in
    send ();
    Printf.printf "before failure: delivered %d/1\n" !delivered;
    let pop v =
      Printf.sprintf "pop%d"
        (Option.get (Backbone.pop_of_node (Scenario.backbone sc) v))
    in
    match Scenario.first_pair_core_link sc with
    | None ->
      Printf.printf "both sites home on %s: no core link to fail\n"
        (pop a.Site.pe_node)
    | Some (u, v) ->
      Topology.set_duplex_state (Network.topology net) u v false;
      Printf.printf "failing core link %s <-> %s...\n" (pop u) (pop v);
      send ();
      Printf.printf "before reconvergence: delivered %d/2%s\n" !delivered
        (if !delivered < 2 then " (traffic lost)" else "");
      (match Scenario.mpls sc with
       | Some m ->
         let rounds = Mpls_vpn.reconverge m in
         Printf.printf "reconverged in %d flooding rounds\n" rounds
       | None -> ());
      send ();
      Printf.printf "after reconvergence: delivered %d/3\n" !delivered
  in
  Cmd.v
    (Cmd.info "fail"
       ~doc:"Fail a core link and show loss, reconvergence and recovery.")
    Term.(const run $ pops_arg $ seed_arg)

(* --- provision ----------------------------------------------------------- *)

let provision_cmd =
  let module P = Mvpn_provision in
  let customers_arg =
    Arg.(value
         & opt (int_conv ~what:"--customers" ~lo:1 ~hi:0x3fff ()) 1000
         & info ["customers"] ~docv:"N" ~doc:"Number of customer VPNs.")
  in
  let dist_arg =
    Arg.(value
         & opt (enum [("pareto", P.Portfolio.Pareto);
                      ("uniform", P.Portfolio.Uniform)])
             P.Portfolio.Pareto
         & info ["sites-dist"] ~docv:"DIST"
           ~doc:"Site-count distribution: pareto (heavy tail) or uniform.")
  in
  let churn_arg =
    Arg.(value & opt (int_conv ~what:"--churn" ~lo:0 ()) 0
         & info ["churn"] ~docv:"K"
           ~doc:"Apply K random site add/remove/SLA-change deltas \
                 incrementally and validate against a from-scratch \
                 compile of the final portfolio.")
  in
  let pops_arg =
    Arg.(value & opt (int_conv ~what:"--pops" ~lo:1 ~hi:64 ()) 12
         & info ["pops"] ~docv:"N" ~doc:"Number of PE POPs (1-64).")
  in
  let rr_arg =
    Arg.(value & flag & info ["rr"]
           ~doc:"Distribute VPNv4 routes through a route reflector at \
                 PE 0 instead of a full iBGP mesh.")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the provisioning report as one JSON object — \
                 portfolio shape, compiled-state metrics, per-PE \
                 linearity table, churn verdict, canonical fingerprint. \
                 Deterministic: equal flags give identical bytes.")
  in
  let run customers dist churn pops seed rr json =
    let mode =
      if rr then Mvpn_routing.Mpbgp.Route_reflector 0
      else Mvpn_routing.Mpbgp.Full_mesh
    in
    let p = P.Portfolio.generate ~dist ~pe_count:pops ~seed ~customers () in
    let t = P.Compile.compile ~mode p in
    let churn_result =
      if churn = 0 then None
      else begin
        let ops = P.Portfolio.churn p ~seed:(seed + 1) ~ops:churn in
        let st = P.Delta.apply_all t ops in
        let oracle = P.Delta.oracle ~mode p ops in
        Some (st, P.Delta.validate t oracle)
      end
    in
    let m = P.Compile.metrics t in
    let per_pe = P.Compile.per_pe t in
    let fp = P.Compile.fingerprint t in
    if json then
      print_json
        Json.(
          let i n = Int n in
          envelope
            [ ("seed", i seed); ("pe_count", i pops);
              ("mode", String (if rr then "route-reflector" else "full-mesh"));
              ("dist", String (P.Portfolio.dist_name dist));
              ("portfolio",
               Obj
                 [ ("customers", i customers);
                   ("sites", i (P.Portfolio.site_count p));
                   ("overlay_circuits", i (P.Portfolio.overlay_circuits p)) ]);
              ("state",
               Obj
                 [ ("customers", i m.customers); ("sites", i m.sites);
                   ("vrfs", i m.vrfs); ("groups", i m.groups);
                   ("routes", i m.routes);
                   ("table_entries", i m.table_entries);
                   ("shared_entries", i m.shared_entries);
                   ("lsps", i m.lsps);
                   ("control_messages", i m.control_messages);
                   ("rds", i m.rds); ("rts", i m.rts);
                   ("bands", List (Array.to_list (Array.map i m.bands))) ]);
              ("per_pe",
               List
                 (Array.to_list
                    (Array.mapi
                       (fun pe (sites, entries) ->
                          Obj
                            [ ("pe", i pe); ("sites", i sites);
                              ("entries", i entries) ])
                       per_pe)));
              ("churn",
               match churn_result with
               | None -> Null
               | Some (st, ok) ->
                 Obj
                   [ ("ops", i st.P.Delta.ops);
                     ("touched_vrfs", i st.P.Delta.touched_vrfs);
                     ("messages", i st.P.Delta.messages);
                     ("oracle_match", Bool ok) ]);
              ("fingerprint", String fp) ])
    else begin
      Printf.printf
        "provisioned %d customers (%d sites, %s site distribution) on %d \
         PEs [%s]\n"
        customers m.P.Compile.sites (P.Portfolio.dist_name dist) pops
        (if rr then "route reflector" else "full mesh");
      Printf.printf
        "  peer-model state : %d VRFs, %d routes, %d shared tables, %d \
         LSPs\n"
        m.P.Compile.vrfs m.P.Compile.routes m.P.Compile.groups
        m.P.Compile.lsps;
      Printf.printf
        "  table entries    : %d logical, %d stored (%.1fx dedup)\n"
        m.P.Compile.table_entries m.P.Compile.shared_entries
        (float_of_int m.P.Compile.table_entries
         /. float_of_int (max 1 m.P.Compile.shared_entries));
      Printf.printf "  identifiers      : %d RDs, %d RTs, bands [%s]\n"
        m.P.Compile.rds m.P.Compile.rts
        (String.concat "; "
           (Array.to_list (Array.map string_of_int m.P.Compile.bands)));
      Printf.printf
        "  overlay contrast : %d point-to-point circuits avoided (C1)\n"
        (P.Portfolio.overlay_circuits p);
      Printf.printf "  control messages : %d\n" m.P.Compile.control_messages;
      (match churn_result with
       | None -> ()
       | Some (st, ok) ->
         Printf.printf
           "  churn            : %d deltas touched %d VRFs (%d \
            messages), oracle %s\n"
           st.P.Delta.ops st.P.Delta.touched_vrfs st.P.Delta.messages
           (if ok then "MATCH" else "MISMATCH"));
      Printf.printf "  fingerprint      : %s\n" fp
    end;
    match churn_result with
    | Some (_, false) -> exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "provision"
       ~doc:"Generate a customer portfolio, compile it to VPN state \
             (VRFs, RTs, QoS bands, LSPs), optionally churn it \
             incrementally, and report the compiled state. Exit 1 if \
             the incremental state diverges from the from-scratch \
             oracle; 124 on command-line errors, per cmdliner.")
    Term.(const run $ customers_arg $ dist_arg $ churn_arg $ pops_arg
          $ seed_arg $ rr_arg $ json_arg)

(* --- plan --------------------------------------------------------------- *)

let plan_cmd =
  let run pops demand_count bandwidth seed =
    let bb = Backbone.build ~pops () in
    let topo = Backbone.topology bb in
    let rng = Mvpn_sim.Rng.create seed in
    let pops_arr = Backbone.pops bb in
    let demands =
      List.init demand_count (fun _ ->
          let src = Mvpn_sim.Rng.int rng pops in
          let dst = (src + 1 + Mvpn_sim.Rng.int rng (pops - 1)) mod pops in
          { Planning.src = pops_arr.(src); dst = pops_arr.(dst);
            bandwidth })
    in
    let report name p =
      Printf.printf
        "%-16s routed %d/%d   max util %.1f%%   hot links %d\n" name
        (Planning.routed p) demand_count
        (Planning.max_utilization p *. 100.0)
        (List.length (Planning.hot_links p));
      match Planning.upgrades_needed p with
      | [] -> ()
      | ups ->
        Printf.printf "  upgrades needed:\n";
        List.iter
          (fun ((l : Topology.link), excess) ->
             Printf.printf "    %s -> %s: +%.1f Mb/s\n"
               (Topology.node_name topo l.Topology.src)
               (Topology.node_name topo l.Topology.dst)
               (excess /. 1e6))
          ups
    in
    Printf.printf "%d demands of %.1f Mb/s over a %d-POP backbone:\n\n"
      demand_count (bandwidth /. 1e6) pops;
    report "shortest-path" (Planning.route_spf topo demands);
    report "capacity-aware" (Planning.route_capacity_aware topo demands)
  in
  let demands_arg =
    Arg.(value & opt (int_conv ~what:"--demands" ~lo:0 ()) 20
         & info ["demands"] ~docv:"N" ~doc:"Number of random demands.")
  in
  let bw_arg =
    Arg.(value & opt pos_float_conv 8e6 & info ["bandwidth"] ~docv:"BPS"
           ~doc:"Bandwidth per demand in bits per second (finite, \
                 positive).")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Offline capacity planning: place a demand matrix by SPF and \
             by capacity-aware routing, and show the upgrade bill.")
    Term.(const run $ pops_arg $ demands_arg $ bw_arg $ seed_arg)

let () =
  let info =
    Cmd.info "mvpn" ~version:"1.0.0"
      ~doc:"End-to-end QoS MPLS VPN simulator (ICPP 2000 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [topo_cmd; deploy_cmd; run_cmd; stats_cmd; slo_cmd; chaos_cmd;
           par_cmd; timeline_cmd; soak_cmd; fail_cmd; provision_cmd;
           plan_cmd]))
