module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Packet = Mvpn_net.Packet
module Registry = Mvpn_telemetry.Registry
module Control = Mvpn_telemetry.Control
module Slo = Mvpn_telemetry.Slo
module Event_log = Mvpn_telemetry.Event_log
module Scenario = Mvpn_core.Scenario
module Network = Mvpn_core.Network
module Qos_mapping = Mvpn_core.Qos_mapping
module Sampler = Mvpn_core.Sampler
module Sla = Mvpn_qos.Sla

type config = {
  shards : int;
  pops : int;
  vpns : int;
  sites_per_vpn : int;
  policy : Qos_mapping.policy;
  use_te : bool;
  load : float;
  duration : float;
  seed : int;
  core_delay : float option;
  backend : Engine.backend;
  sample_interval : float option;
  profile : bool;
  prepare_replica : (Scenario.t -> unit) option;
  diurnal : int option;
}

let default_config =
  { shards = 4; pops = 12; vpns = 2; sites_per_vpn = 4;
    policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
    use_te = false; load = 0.9; duration = 30.0; seed = 11;
    core_delay = None; backend = Engine.Calendar;
    sample_interval = None; profile = false; prepare_replica = None;
    diurnal = None }

type outcome = {
  shards : int;
  sizes : int array;
  cut_links : int;
  lookahead : bool;
  delivered : int;
  dropped : int;
  events : int;
  scheduled : int;
  exchanged : int;
  leftover : int;
  overflow : int;
  classes : (string * int * int) list;
  slo : Slo.t;
  registry_json : Mvpn_telemetry.Json.t;
  horizon : float;
}

let horizon_of cfg = cfg.duration +. 5.0

let build cfg =
  Scenario.build ~backend:cfg.backend ~pops:cfg.pops ~vpns:cfg.vpns
    ~sites_per_vpn:cfg.sites_per_vpn ~seed:cfg.seed
    ?core_delay:cfg.core_delay
    (Scenario.Mpls_deployment { policy = cfg.policy; use_te = cfg.use_te })

let arm_workload cfg sc ~only =
  match cfg.diurnal with
  | None ->
    Scenario.add_mixed_workload ~load:cfg.load ~only sc
      ~pairs:(Scenario.default_pairs sc) ~duration:cfg.duration
  | Some segments ->
    Scenario.add_diurnal_workload ~peak_load:cfg.load ~segments ~only sc
      ~pairs:(Scenario.default_pairs sc) ~duration:cfg.duration

(* Replay a time-sorted fate stream into a fresh conformance engine
   with the stock per-(vpn, band) objectives — the same declarations
   [Scenario.attach_slo] makes. The stream arrives as an iteration
   function: the sequential runner's one fate log, or the parallel
   runner's merge of its shards' logs. A private event log keeps the
   replay's transitions out of the global forensic ring and the global
   slo.* counters, which count what the run itself recorded. *)
let replay_slo ~scenario ~horizon iter_fates =
  let slo = Slo.create ~events:(Event_log.create ()) () in
  Scenario.declare_objectives scenario slo;
  Control.with_enabled (fun () ->
      iter_fates (fun ~time ~vpn ~band ~dropped ~latency ->
          if dropped then Slo.observe_drop slo ~vpn ~band ~time
          else Slo.observe_delivery slo ~vpn ~band ~time ~latency);
      Slo.advance slo ~time:horizon);
  slo

let class_sums per_replica_reports =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (List.iter (fun (label, (r : Sla.report)) ->
         let s0, v0 =
           match Hashtbl.find_opt tbl label with
           | Some x -> x
           | None ->
             order := label :: !order;
             (0, 0)
         in
         Hashtbl.replace tbl label (s0 + r.Sla.sent, v0 + r.Sla.received)))
    per_replica_reports;
  List.rev_map (fun l -> let s, v = Hashtbl.find tbl l in (l, s, v)) !order

(* One shard's life: conservative windows (or epoch barriers when some
   cut link has zero lookahead), then the final inclusive pass at the
   horizon, then a last channel flush so post-horizon messages are
   accounted as leftovers rather than stranded. *)
let drive sh clock =
  let id = Shard.id sh in
  let horizon = Clock.horizon clock in
  if Clock.lookahead clock then begin
    let rec loop completed =
      if completed < horizon then begin
        let b = Clock.next_bound clock ~shard:id ~completed in
        Shard.ingest sh ~bound:b ~inclusive:false;
        Shard.run_before sh ~before:b;
        Clock.publish clock ~shard:id b;
        loop b
      end
    in
    loop 0.0
  end
  else begin
    let rec rounds () =
      Clock.barrier clock;
      Shard.ingest sh ~bound:horizon ~inclusive:true;
      let nxt = Option.value ~default:infinity (Shard.peek sh) in
      let m = Clock.min_next clock ~shard:id nxt in
      if m <= horizon then begin
        Shard.run_to sh ~until:m;
        rounds ()
      end
    in
    rounds ()
  end;
  Clock.barrier clock;
  Shard.ingest sh ~bound:horizon ~inclusive:true;
  Shard.run_to sh ~until:horizon;
  Clock.barrier clock;
  (* Everyone has finished the horizon pass: drain what those last
     events sent (all of it arrives strictly past the horizon). *)
  Shard.ingest sh ~bound:neg_infinity ~inclusive:false

let run_parallel (cfg : config) =
  if cfg.shards < 1 then invalid_arg "Runner.run_parallel: shards < 1";
  (* Long soaks recycle packet storage. Flag set before the shard
     domains spawn (each recycles through its own domain-local pool);
     delivered/dropped packets are not retained by any runner hook. *)
  let prev_pooling = Packet.pooling () in
  Packet.set_pooling true;
  Fun.protect ~finally:(fun () -> Packet.set_pooling prev_pooling)
  @@ fun () ->
  let horizon = horizon_of cfg in
  (* Throwaway build, telemetry off, just to cut the topology — every
     replica builds the same one, so the partition is exact. *)
  let part =
    Control.with_disabled (fun () ->
        let sc = build cfg in
        Partition.compute
          ~hint:(Scenario.region_hint sc)
          (Network.topology (Scenario.network sc))
          ~shards:cfg.shards)
  in
  let k = part.Partition.shards in
  let ex = Exchange.create ~shards:k () in
  let inbound = Array.make k [] in
  List.iter
    (fun (l : Topology.link) ->
       let s = part.Partition.owner.(l.Topology.src)
       and d = part.Partition.owner.(l.Topology.dst) in
       Exchange.open_channel ex ~src:s ~dst:d;
       inbound.(d) <-
         (match List.assoc_opt s inbound.(d) with
          | Some d0 ->
            (s, Float.min d0 l.Topology.delay)
            :: List.remove_assoc s inbound.(d)
          | None -> (s, l.Topology.delay) :: inbound.(d)))
    part.Partition.cut;
  let clock = Clock.create ~shards:k ~horizon ~inbound in
  let domains =
    Array.init k (fun i ->
        Domain.spawn (fun () ->
            let sh =
              Shard.create ~id:i ~part ~exchange:ex
                ~build:(fun () -> build cfg)
                ~prepare:(fun sc ->
                    let tap =
                      Option.map
                        (fun dt ->
                           Sampler.observe_fate
                             (Sampler.start ~interval:dt ~until:horizon sc))
                        cfg.sample_interval
                    in
                    (* Same schedule-call order as run_sequential:
                       sampler ticks, then whatever the caller arms
                       (chaos storms, the invariant auditor) — FIFO
                       tie-break at equal times depends on it. *)
                    (match cfg.prepare_replica with
                     | Some f -> f sc
                     | None -> ());
                    tap)
                ~arm:(arm_workload cfg) ()
            in
            drive sh clock;
            Shard.collect sh))
  in
  let cols = Array.map Domain.join domains in
  (* Merge every shard's metric cells into this domain, in shard order
     (associative, so the order only pins float rounding). *)
  Array.iter (fun c -> Registry.absorb c.Shard.r_snapshot) cols;
  (* Post-horizon cross-shard packets: the sequential run scheduled
     their propagation events (and never executed them); re-schedule
     them on the destination replica so [sim.scheduled] agrees. *)
  let leftover = ref 0 in
  Array.iter
    (fun c ->
       let eng = Scenario.engine c.Shard.r_scenario in
       let net = Scenario.network c.Shard.r_scenario in
       List.iter
         (fun (m : Exchange.msg) ->
            incr leftover;
            let dst = m.Exchange.dst_node and src = m.Exchange.src_node in
            let packet = m.Exchange.packet in
            Engine.schedule_at eng ~time:m.Exchange.arrival (fun () ->
                Network.receive net dst ~from:(Some src) packet))
         c.Shard.r_leftover)
    cols;
  let registry_json = Registry.to_json ~trace_events:0 () in
  let counter_sum name =
    Array.fold_left
      (fun acc c -> acc + Registry.snapshot_counter c.Shard.r_snapshot name)
      0 cols
  in
  (* [cols] is in shard order, so the merge orders fates by (time,
     shard, observation order). *)
  let slo =
    replay_slo ~scenario:cols.(0).Shard.r_scenario ~horizon
      (Fatelog.iter_merged (Array.map (fun c -> c.Shard.r_fates) cols))
  in
  { shards = k;
    sizes = Partition.sizes part;
    cut_links = List.length part.Partition.cut;
    lookahead = Clock.lookahead clock;
    delivered = counter_sum "net.delivered";
    dropped = counter_sum "net.drops";
    events = counter_sum "sim.events";
    scheduled = counter_sum "sim.scheduled" + !leftover;
    exchanged =
      Array.fold_left (fun acc c -> acc + c.Shard.r_sent) 0 cols;
    leftover = !leftover;
    overflow = Exchange.overflows ex;
    classes =
      class_sums
        (Array.to_list cols
         |> List.map (fun c -> Scenario.class_reports c.Shard.r_scenario));
    slo; registry_json; horizon }

let run_sequential (cfg : config) =
  let prev_pooling = Packet.pooling () in
  Packet.set_pooling true;
  Fun.protect ~finally:(fun () -> Packet.set_pooling prev_pooling)
  @@ fun () ->
  let horizon = horizon_of cfg in
  let base = Registry.snapshot () in
  let sc = build cfg in
  let net = Scenario.network sc in
  let sampler =
    Option.map
      (fun dt -> Sampler.start ~interval:dt ~until:horizon sc)
      cfg.sample_interval
  in
  (* After the sampler, before the workload — the same schedule-call
     order the shard replicas use, so events landing at equal times
     keep the same FIFO rank at every shard count. *)
  (match cfg.prepare_replica with Some f -> f sc | None -> ());
  if cfg.profile then
    Mvpn_sim.Profile.enable (Engine.profiler (Scenario.engine sc));
  let fates = Fatelog.create () in
  Network.set_fate_hook net
    (Some
       (match sampler with
        | None -> Fatelog.add fates
        | Some sm ->
          fun ~time ~vpn ~band ~dropped ~latency ->
            Sampler.observe_fate sm ~time ~vpn ~band ~dropped ~latency;
            Fatelog.add fates ~time ~vpn ~band ~dropped ~latency));
  arm_workload cfg sc ~only:(fun _ _ -> true);
  Engine.run ~until:horizon (Scenario.engine sc);
  if cfg.profile then
    Mvpn_sim.Profile.publish (Engine.profiler (Scenario.engine sc));
  let finis = Registry.snapshot () in
  let diff name =
    Registry.snapshot_counter finis name
    - Registry.snapshot_counter base name
  in
  let registry_json = Registry.to_json ~trace_events:0 () in
  let slo = replay_slo ~scenario:sc ~horizon (Fatelog.iter fates) in
  { shards = 1;
    sizes =
      [| Topology.node_count (Network.topology net) |];
    cut_links = 0;
    lookahead = true;
    delivered = diff "net.delivered";
    dropped = diff "net.drops";
    events = diff "sim.events";
    scheduled = diff "sim.scheduled";
    exchanged = 0;
    leftover = 0;
    overflow = 0;
    classes = class_sums [ Scenario.class_reports sc ];
    slo; registry_json; horizon }
