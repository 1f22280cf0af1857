(* The three simulation workloads: the E16 backbone sequentially
   (backbone_steady) and through the K=2 sharded runner (backbone_k2),
   and the E18 seq-chaos soak (soak_chaos).

   The sequential pass replays {!Mvpn_par.Runner.run_sequential}'s
   build/arm/run path through public functions, so set-up (build,
   deploy, storm and auditor arming, workload arming) is timed apart
   from the run (Engine.run plus the SLO replay that yields the
   verdict). Its fingerprint equals the runner's at every seed. *)

module T = Mvpn_telemetry
module Engine = Mvpn_sim.Engine
module Scenario = Mvpn_core.Scenario
module Network = Mvpn_core.Network
module Site = Mvpn_core.Site
module Qos_mapping = Mvpn_core.Qos_mapping
module Runner = Mvpn_par.Runner
module Audit = Mvpn_resilience.Audit
module Chaos = Mvpn_resilience.Chaos
module Harness = Mvpn_resilience.Harness

type kind = Steady | Chaos_soak

type spec = {
  kind : kind;
  cfg : Runner.config;
  storm_events : int;
  storm_seed : int;
}

(* Full size is the E16 / E18 configuration. Tiny is the smoke-test
   size: the same code paths in well under a second. *)
let spec ~kind ~tiny ~seed =
  let pops, vpns, sites = if tiny then (6, 2, 3) else (16, 4, 8) in
  let duration =
    match (kind, tiny) with
    | Steady, false -> 40.0
    | Chaos_soak, false -> 72.0
    | Steady, true -> 2.0
    | Chaos_soak, true -> 8.0
  in
  { kind;
    cfg =
      { Runner.default_config with
        Runner.shards = 1; pops; vpns; sites_per_vpn = sites; load = 0.9;
        duration; seed;
        diurnal = (match kind with Chaos_soak -> Some 8 | Steady -> None) };
    storm_events = (if tiny then 6 else 24);
    (* The default seed 11 draws E18's storm seed 7. *)
    storm_seed = seed - 4 }

let horizon sp = sp.cfg.Runner.duration +. 5.0

let build sp =
  let c = sp.cfg in
  Scenario.build ~backend:c.Runner.backend ~pops:c.Runner.pops
    ~vpns:c.Runner.vpns ~sites_per_vpn:c.Runner.sites_per_vpn
    ~seed:c.Runner.seed
    (Scenario.Mpls_deployment
       { policy = c.Runner.policy; use_te = c.Runner.use_te })

(* Topology-only storm drawn from a throwaway build, as E18 does. *)
let storm_plan sp =
  T.Control.with_disabled (fun () ->
      let sc = build sp in
      let nodes =
        Array.to_list (Mvpn_core.Backbone.pops (Scenario.backbone sc))
      in
      Chaos.random_topology_plan ~events:sp.storm_events ~nodes
        ~rng:(Mvpn_sim.Rng.create sp.storm_seed)
        ~links:(Scenario.core_links sc) ~duration:sp.cfg.Runner.duration ())

(* E18's seq-chaos replica preparation: FRR + fallback + recovery under
   the storm, a live SLO engine, and (when [audit]) the 1 Hz auditor. *)
let prepare_chaos sp ~plan ~audit sc =
  let frr =
    Harness.frr
      (Harness.arm ~plan ~frr:true ~fallback:true ~seed:sp.storm_seed
         ~duration:sp.cfg.Runner.duration sc)
  in
  ignore
    (Scenario.attach_slo
       ~slo:(T.Slo.create ~events:(T.Event_log.create ()) ())
       sc);
  Network.set_span_sampler (Scenario.network sc) None;
  if audit then Some (Audit.start ?frr ~until:(horizon sp) sc) else None

(* Struct-of-arrays fate log: the stream the SLO verdict is replayed
   from, and the input of the isolated Slo replay. *)
module Fates = struct
  type t = {
    mutable times : floatarray;
    mutable lats : floatarray;
    mutable meta : int array;  (* vpn lsl 22 lor band lsl 1 lor dropped *)
    mutable n : int;
  }

  let create () =
    { times = Float.Array.create 4096; lats = Float.Array.create 4096;
      meta = Array.make 4096 0; n = 0 }

  let add t ~time ~vpn ~band ~dropped ~latency =
    let n = t.n in
    if n = Array.length t.meta then begin
      let grow a = let b = Float.Array.create (2 * n) in
        Float.Array.blit a 0 b 0 n; b in
      t.times <- grow t.times;
      t.lats <- grow t.lats;
      let m = Array.make (2 * n) 0 in
      Array.blit t.meta 0 m 0 n;
      t.meta <- m
    end;
    Float.Array.set t.times n time;
    Float.Array.set t.lats n latency;
    t.meta.(n) <- (vpn lsl 22) lor (band lsl 1) lor Bool.to_int dropped;
    t.n <- n + 1

  let iter t f =
    for i = 0 to t.n - 1 do
      let m = t.meta.(i) in
      f ~time:(Float.Array.get t.times i) ~vpn:(m lsr 22)
        ~band:((m lsr 1) land 0x1FFFFF) ~dropped:(m land 1 = 1)
        ~latency:(Float.Array.get t.lats i)
    done
end

(* A conformance engine with the stock per-(vpn, band) objectives —
   the declarations the runner's replay makes. *)
let fresh_slo sc =
  let slo = T.Slo.create ~events:(T.Event_log.create ()) () in
  let vpns =
    Array.fold_left (fun acc (s : Site.t) -> s.Site.vpn :: acc) [ 0 ]
      (Scenario.sites sc)
    |> List.sort_uniq Int.compare
  in
  List.iter
    (fun vpn ->
       for band = 0 to Qos_mapping.band_count - 1 do
         T.Slo.declare slo ~vpn ~band (Qos_mapping.default_objective band)
       done)
    vpns;
  slo

let observe slo ~time ~vpn ~band ~dropped ~latency =
  if dropped then T.Slo.observe_drop slo ~vpn ~band ~time
  else T.Slo.observe_delivery slo ~vpn ~band ~time ~latency

let replay_slo sc ~horizon fates =
  let slo = fresh_slo sc in
  Fates.iter fates (observe slo);
  T.Slo.advance slo ~time:horizon;
  slo

type fingerprint = {
  delivered : int;
  dropped : int;
  events : int;
  scheduled : int;
  classes : (string * int * int) list;
  in_budget : bool;
  violations : int;
}

let fp_to_string f =
  Printf.sprintf "delivered=%d dropped=%d events=%d scheduled=%d %s slo=%b/%d"
    f.delivered f.dropped f.events f.scheduled
    (String.concat ","
       (List.map (fun (l, s, r) -> Printf.sprintf "%s:%d/%d" l s r) f.classes))
    f.in_budget f.violations

let of_outcome (o : Runner.outcome) =
  { delivered = o.Runner.delivered; dropped = o.Runner.dropped;
    events = o.Runner.events; scheduled = o.Runner.scheduled;
    classes = o.Runner.classes; in_budget = T.Slo.in_budget o.Runner.slo;
    violations = T.Slo.violation_count o.Runner.slo }

(* One armed sequential replica, ready to run. *)
type armed = {
  sp : spec;
  sc : Scenario.t;
  base : T.Registry.snapshot;
  fates : Fates.t;
  audit : Audit.t option;
}

let engine a = Scenario.engine a.sc
let network a = Scenario.network a.sc

(* Build, deploy and arm one replica. [plan] is the storm (chaos only);
   [instrument] runs after preparation and before the workload is
   armed, so whatever it schedules cannot reorder the workload's
   events. *)
let setup ?plan ?(audit = true) ?(instrument = fun _ -> ()) sp =
  let base = T.Registry.snapshot () in
  let sc = Spans.with_span "build" (fun () -> build sp) in
  Spans.with_span "arm" @@ fun () ->
  let audit =
    match (sp.kind, plan) with
    | Chaos_soak, Some plan -> prepare_chaos sp ~plan ~audit sc
    | Chaos_soak, None -> invalid_arg "Simwl.setup: chaos needs a plan"
    | Steady, _ -> None
  in
  instrument sc;
  let fates = Fates.create () in
  Network.set_fate_hook (Scenario.network sc) (Some (Fates.add fates));
  let c = sp.cfg in
  let pairs = Scenario.default_pairs sc and only _ _ = true in
  (match c.Runner.diurnal with
   | None ->
     Scenario.add_mixed_workload ~load:c.Runner.load ~only sc ~pairs
       ~duration:c.Runner.duration
   | Some segments ->
     Scenario.add_diurnal_workload ~peak_load:c.Runner.load ~segments ~only sc
       ~pairs ~duration:c.Runner.duration);
  { sp; sc; base; fates; audit }

(* The timed phase's engine half; [drive] replaces the plain run (the
   traced run steps the engine to record event times). *)
let run_engine ?drive a =
  Spans.with_span "Engine.run" (fun () ->
      match drive with
      | None -> Engine.run ~until:(horizon a.sp) (engine a)
      | Some f -> f a)

let finish a =
  let slo =
    Spans.with_span "slo.replay" (fun () ->
        replay_slo a.sc ~horizon:(horizon a.sp) a.fates)
  in
  let now = T.Registry.snapshot () in
  let diff name =
    T.Registry.snapshot_counter now name
    - T.Registry.snapshot_counter a.base name
  in
  (* [net.drops] mirrors the current network's drop table (it is set,
     not incremented), so it is read from that table, not diffed. *)
  { delivered = diff "net.delivered"; dropped = Network.drops (network a);
    events = diff "sim.events"; scheduled = diff "sim.scheduled";
    classes =
      List.map
        (fun (l, (r : Mvpn_qos.Sla.report)) ->
           (l, r.Mvpn_qos.Sla.sent, r.Mvpn_qos.Sla.received))
        (Scenario.class_reports a.sc);
    in_budget = T.Slo.in_budget slo; violations = T.Slo.violation_count slo }

let audit_violations a =
  match a.audit with Some t -> Audit.violations t | None -> 0

let audit_ticks a = match a.audit with Some t -> Audit.ticks t | None -> 0

(* The runner's own sequential fingerprint at this spec: what
   backbone_k2 must reproduce and what the benchmark's own pass must
   equal. *)
let steady_reference sp =
  fp_to_string (of_outcome (Runner.run_sequential sp.cfg))

let k2_config sp = { sp.cfg with Runner.shards = 2 }
