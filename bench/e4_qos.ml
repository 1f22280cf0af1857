(* E4 — end-to-end QoS under congestion (§2.2, §3.1, claim C3).

   Voice (EF), transactional (AF31) and bulk (BE) flows share the VPN.
   Sweep offered load across three forwarding policies; the paper's
   claim is that best-effort IP cannot honour the premium SLAs while
   DiffServ over the MPLS backbone can. *)

open Mvpn_core
module Sla = Mvpn_qos.Sla

let duration = 30.0

let policies =
  [ ("best-effort", Qos_mapping.Best_effort, false);
    ("diffserv", Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched,
     false);
    ("diffserv+te", Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched,
     true) ]

let run_cell ~policy ~use_te ~load =
  let sc =
    Scenario.build ~pops:8 ~vpns:1 ~sites_per_vpn:4
      (Scenario.Mpls_deployment { policy; use_te })
  in
  let pairs =
    [ (Scenario.site sc ~vpn:1 ~idx:0, Scenario.site sc ~vpn:1 ~idx:1);
      (Scenario.site sc ~vpn:1 ~idx:2, Scenario.site sc ~vpn:1 ~idx:3) ]
  in
  Scenario.add_mixed_workload ~load sc ~pairs ~duration;
  Scenario.run sc ~duration:(duration +. 5.0);
  Scenario.class_reports sc

let spec_of cls =
  match
    List.find_opt (fun (n, _, _) -> n = cls) Scenario.service_classes
  with
  | Some (_, _, spec) -> spec
  | None -> Sla.best_effort_spec

(* Voice delay distribution at overload: where the SLA dies. *)
let delay_histogram () =
  Tables.heading
    "E4b: voice one-way delay distribution at load 1.2 (packet counts)";
  let edges = [| 0.025; 0.05; 0.1; 0.2; 0.4; 0.8 |] in
  let label_of i =
    if i = 0 then "<=25ms"
    else if i = Array.length edges then ">800ms"
    else
      Printf.sprintf "(%g,%g]ms" (edges.(i - 1) *. 1e3) (edges.(i) *. 1e3)
  in
  let per_policy =
    List.map
      (fun (name, policy, use_te) ->
         let sc =
           Scenario.build ~pops:8 ~vpns:1 ~sites_per_vpn:4
             (Scenario.Mpls_deployment { policy; use_te })
         in
         let pairs =
           [ (Scenario.site sc ~vpn:1 ~idx:0, Scenario.site sc ~vpn:1 ~idx:1) ]
         in
         Scenario.add_mixed_workload ~load:1.2 sc ~pairs ~duration;
         Scenario.run sc ~duration:(duration +. 5.0);
         (* The delays come sorted, so one pass fills the buckets in
            order: bucket [i] counts (edges.(i-1), edges.(i)], the last
            one everything past the top edge. *)
         let counts = Array.make (Array.length edges + 1) 0 in
         let b = ref 0 in
         Array.iter
           (fun x ->
              while !b < Array.length edges && x > edges.(!b) do incr b done;
              counts.(!b) <- counts.(!b) + 1)
           (Mvpn_qos.Sla.delay_samples
              (Mvpn_core.Traffic.collector (Scenario.registry sc) "voice"));
         (name, counts))
      [ ("best-effort", Qos_mapping.Best_effort, false);
        ("diffserv", Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched,
         false) ]
  in
  let widths = [14; 10; 10; 10; 10; 10; 10; 10] in
  Tables.row widths
    ("policy" :: List.init 7 label_of);
  Tables.rule widths;
  List.iter
    (fun (name, counts) ->
       Tables.row widths
         (name :: Array.to_list (Array.map string_of_int counts)))
    per_policy;
  Tables.note
    "\nDiffServ concentrates the EF distribution entirely in the lowest\n\
     bucket; best effort smears it across hundreds of milliseconds —\n\
     the same facts as E4's means, seen as the whole distribution."

let run () =
  Tables.heading "E4: per-class SLA vs offered load and forwarding policy";
  let widths = [6; 14; 15; 10; 10; 9; 8; 6] in
  Tables.row widths
    ["load"; "policy"; "class"; "mean ms"; "p99 ms"; "jit ms"; "loss"; "SLA"];
  Tables.rule widths;
  List.iter
    (fun load ->
       List.iter
         (fun (pname, policy, use_te) ->
            let reports = run_cell ~policy ~use_te ~load in
            List.iter
              (fun (cls, (r : Sla.report)) ->
                 Tables.row widths
                   [ Tables.f2 load; pname; cls;
                     Tables.ms r.Sla.mean_delay;
                     Tables.ms r.Sla.p99_delay;
                     Tables.ms r.Sla.jitter;
                     Tables.pct r.Sla.loss;
                     (if Sla.complies (spec_of cls) r then "ok" else "VIOL") ])
              reports)
         policies;
       Tables.rule widths)
    [0.6; 0.9; 1.2];
  Tables.note
    "\nExpected shape (paper C3): best-effort cannot honour the premium\n\
     SLAs — Pareto-bursty bulk transiently saturates the access even at\n\
     0.6 mean load, queueing voice behind megabyte bursts — and it only\n\
     worsens with load. DiffServ over the MPLS backbone keeps voice and\n\
     transactional within SLA at every load, pushing the damage onto\n\
     the bulk class that caused it. TE does not change this picture\n\
     while the core is uncongested (its effect is E7).";
  delay_histogram ();
  Telemetry_report.section
    ~title:
      "E4c: queue verdicts per band and per-class sojourn \
       (diffserv, load 1.2)"
    (fun () ->
       ignore
         (run_cell
            ~policy:(Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched)
            ~use_te:false ~load:1.2));
  Tables.note
    "\nThe drop columns name the mechanism: WRED acts on the AF bands\n\
     before the queue fills, tail drop catches best effort. Sojourn\n\
     quantiles are measured at delivery, per DSCP."
