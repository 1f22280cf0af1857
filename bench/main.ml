(* Experiment harness: regenerates every quantitative claim of the
   paper (DESIGN.md §4 maps claims to experiments).

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only E1    -- one experiment
     dune exec bench/main.exe -- --list       -- list experiments *)

let experiments =
  [ ("E0", "label lookup vs longest-prefix match (Bechamel)",
     E0_forwarding.run);
    ("E1", "overlay N(N-1)/2 circuits vs linear MPLS VPN state",
     E1_scalability.run);
    ("E2", "isolation across VPNs with overlapping address plans",
     E2_isolation.run);
    ("E3", "membership/reachability procedures and IGP convergence",
     E3_procedures.run);
    ("E4", "per-class SLA vs load: best-effort vs DiffServ(+TE)",
     E4_qos.run);
    ("E5", "IPSec: ToS-copy knob and crypto throughput ceiling",
     E5_ipsec.run);
    ("E6", "end-to-end chain: CPE CBQ -> DSCP -> EXP -> PHB",
     E6_end_to_end.run);
    ("E7", "traffic engineering: SPF stacking vs CSPF spreading",
     E7_traffic_engineering.run);
    ("E8", "blind vs resource-aware bandwidth admission",
     E8_admission.run);
    ("E9", "ATM substrate: cell tax, loss amplification, VC admission",
     E9_atm.run);
    ("E10", "one VPN across two carriers (Option-A border)",
     E10_interprovider.run);
    ("E11", "IntServ per-flow state vs DiffServ/MPLS aggregation",
     E11_intserv.run);
    ("E12", "frame relay parity: contract, congestion, overhead",
     E12_frame_relay.run);
    ("E13", "restoration: no repair vs IGP reconvergence vs FRR",
     E13_restoration.run);
    ("E14", "group communication: ingress-replication multicast",
     E14_multicast.run);
    ("E15", "chaos: seeded fault storms, fast reroute on vs off",
     E15_chaos.run);
    ("E16", "partitioned parallel runner: seq vs K=2/4/8 shards",
     E16_parallel.run);
    ("E18", "audited soak: invariant auditor under diurnal chaos",
     E18_soak.run);
    ("E19", "provisioning at scale: C1 measured at 10k VPNs",
     E19_provision.run);
    ("ABL", "ablations: scheduler, WRED, PHP, shared-vs-per-pair LSPs",
     Ablations.run) ]

let list_experiments () =
  List.iter
    (fun (id, desc, _) -> Printf.printf "%-4s %s\n" id desc)
    experiments

let run_one id =
  match
    List.find_opt
      (fun (eid, _, _) -> String.lowercase_ascii eid = String.lowercase_ascii id)
      experiments
  with
  | Some (_, _, run) -> run ()
  | None ->
    Printf.eprintf "unknown experiment %S; try --list\n" id;
    exit 1

(* Counters, gauges and histograms accumulated across the experiments
   just run: each run and section (E4c, E6b) measures in its own
   registry scope, whose values fold back into this total; the event
   log holds the last scope's entries and what was recorded after
   it. *)
let emit_telemetry () =
  let path = "BENCH_telemetry.json" in
  let oc = open_out path in
  output_string oc
    (Mvpn_telemetry.Json.to_string (Mvpn_telemetry.Registry.to_json ()));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\ntelemetry: %d metrics written to %s\n"
    (Mvpn_telemetry.Registry.cardinal ())
    path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | ["--list"] -> list_experiments ()
  | ["--only"; id] ->
    Mvpn_telemetry.Control.enable ();
    run_one id;
    emit_telemetry ()
  | [] ->
    Printf.printf
      "MPLS VPN end-to-end QoS: experiment harness (see DESIGN.md)\n";
    Mvpn_telemetry.Control.enable ();
    List.iter (fun (_, _, run) -> run ()) experiments;
    emit_telemetry ()
  | _ ->
    Printf.eprintf
      "usage: main.exe [--list | --only <id>]\n";
    exit 1
