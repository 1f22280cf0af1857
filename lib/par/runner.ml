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
module Site = Mvpn_core.Site
module Sla = Mvpn_qos.Sla
module Profile = Mvpn_sim.Profile

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
  prepare_replica : Scenario.t -> unit;
  diurnal : int option;
}

let default_config =
  { shards = 4; pops = 12; vpns = 2; sites_per_vpn = 4;
    policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
    use_te = false; load = 0.9; duration = 30.0; seed = 11;
    core_delay = None; backend = Engine.Calendar;
    sample_interval = None; prepare_replica = ignore;
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
  registry : Registry.snapshot;
  registry_json : Mvpn_telemetry.Json.t;
  replicas : Scenario.t array;
  horizon : float;
}

let horizon_of cfg = cfg.duration +. 5.0

let build cfg =
  Scenario.build ~backend:cfg.backend ~pops:cfg.pops ~vpns:cfg.vpns
    ~sites_per_vpn:cfg.sites_per_vpn ~seed:cfg.seed
    ?core_delay:cfg.core_delay
    (Scenario.Mpls_deployment { policy = cfg.policy; use_te = cfg.use_te })

(* The one arming order; runner.mli states why each step sits where it
   does. *)
let replica cfg ~canonical ~only =
  let sc = build cfg in
  (* Every replica's build bumps this domain's metric cells; only the
     canonical one keeps them, so deploy-time counters appear exactly
     once in a merged snapshot. [Registry.reset] zeroes the calling
     domain's cells only, so concurrent builds are unaffected. *)
  if not canonical then Registry.reset ();
  let sampler =
    Option.map
      (fun dt -> Sampler.start ~interval:dt ~until:(horizon_of cfg) sc)
      cfg.sample_interval
  in
  cfg.prepare_replica sc;
  let fates = Fatelog.create () in
  Network.set_fate_hook (Scenario.network sc)
    (Some
       (match sampler with
        | None -> Fatelog.add fates
        | Some sm ->
          fun ~time ~vpn ~band ~dropped ~latency ->
            Sampler.observe_fate sm ~time ~vpn ~band ~dropped ~latency;
            Fatelog.add fates ~time ~vpn ~band ~dropped ~latency));
  let pairs = Scenario.default_pairs sc in
  (match cfg.diurnal with
   | None ->
     Scenario.add_mixed_workload ~load:cfg.load ~only sc ~pairs
       ~duration:cfg.duration
   | Some segments ->
     Scenario.add_diurnal_workload ~peak_load:cfg.load ~segments ~only sc
       ~pairs ~duration:cfg.duration);
  (sc, fates)

(* Replay a time-sorted fate stream into a fresh conformance engine
   with the stock per-(vpn, band) objectives — the same declarations
   [Scenario.attach_slo] makes. A private event log keeps the replay's
   transitions out of the global forensic ring and the global slo.*
   counters, which count what the run itself recorded. *)
let replay_slo ~scenario ~horizon fates =
  let slo = Slo.create ~events:(Event_log.create ()) () in
  Scenario.declare_objectives scenario slo;
  Fatelog.iter_merged fates (fun ~time ~vpn ~band ~dropped ~latency ->
      if dropped then Slo.observe_drop slo ~vpn ~band ~time
      else Slo.observe_delivery slo ~vpn ~band ~time ~latency);
  Slo.advance slo ~time:horizon;
  slo

let class_sums replicas =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun (sc, _) ->
       List.iter
         (fun (label, (r : Sla.report)) ->
            let s0, v0 =
              match Hashtbl.find_opt tbl label with
              | Some x -> x
              | None ->
                order := label :: !order;
                (0, 0)
            in
            Hashtbl.replace tbl label (s0 + r.Sla.sent, v0 + r.Sla.received))
         (Scenario.class_reports sc))
    replicas;
  List.rev_map (fun l -> let s, v = Hashtbl.find tbl l in (l, s, v)) !order

(* What both entry points report: every total read from the run's one
   snapshot, the class sums over its replicas and the SLO verdict
   replayed from their fates, merged in replica order (one log replays
   as recorded). The partition fields read as one unpartitioned
   replica; {!run_parallel} overrides them. *)
let outcome ~horizon ~registry ~registry_json replicas =
  let total = Registry.snapshot_counter registry in
  let sc0 = fst replicas.(0) in
  { shards = 1;
    sizes =
      [| Topology.node_count (Network.topology (Scenario.network sc0)) |];
    cut_links = 0;
    lookahead = true;
    delivered = total "net.delivered";
    dropped = total "net.drops";
    events = total "sim.events";
    scheduled = total "sim.scheduled";
    exchanged = 0;
    leftover = 0;
    overflow = 0;
    classes = class_sums replicas;
    slo = replay_slo ~scenario:sc0 ~horizon (Array.map snd replicas);
    registry; registry_json; replicas = Array.map fst replicas; horizon }

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

(* A shard's failure: the sim time it stopped at, the exception and
   its backtrace. *)
type failure = { at : float; exn : exn; bt : Printexc.raw_backtrace }

(* The failure to re-raise once every domain has joined: the earliest
   by (sim time, shard), passing over the [Clock.Aborted] of shards
   that only stopped because another failed. *)
let first_failure joined =
  let key f =
    ((match f.exn with Clock.Aborted -> true | _ -> false), f.at)
  in
  Array.fold_left
    (fun best r ->
       match (best, r) with
       | None, Error f -> Some f
       | Some b, Error f when key f < key b -> Some f
       | _ -> best)
    None joined

(* Both entry points run with telemetry on (every total is counted
   through the registry) and packet storage recycled (long soaks; each
   domain recycles through its own pool), both set before any shard
   domain spawns and restored afterwards. No runner hook retains a
   delivered or dropped packet. *)
let owned_run f =
  Control.with_enabled @@ fun () ->
  let prev_pooling = Packet.pooling () in
  Packet.set_pooling true;
  Fun.protect ~finally:(fun () -> Packet.set_pooling prev_pooling) f

let sequential cfg =
  let horizon = horizon_of cfg in
  let (r, registry_json), registry =
    Registry.scoped (fun () ->
        let ((sc, _) as r) =
          replica cfg ~canonical:true ~only:(fun _ _ -> true)
        in
        Scenario.run sc ~duration:horizon;
        (* The dispatch ledger, when a [prepare_replica] enabled it.
           Shard wall times do not merge, so only this path publishes
           it. *)
        let prof = Engine.profiler (Scenario.engine sc) in
        if Profile.enabled prof then Profile.publish prof;
        (r, Registry.to_json ~trace_events:0 ()))
  in
  outcome ~horizon ~registry ~registry_json [| r |]

let sharded (cfg : config) part =
  let horizon = horizon_of cfg in
  let k = part.Partition.shards in
  let owner = part.Partition.owner in
  let ex = Exchange.create ~shards:k () in
  let inbound = Array.make k [] in
  List.iter
    (fun (l : Topology.link) ->
       let s = owner.(l.Topology.src) and d = owner.(l.Topology.dst) in
       Exchange.open_channel ex ~src:s ~dst:d;
       inbound.(d) <-
         (match List.assoc_opt s inbound.(d) with
          | Some d0 ->
            (s, Float.min d0 l.Topology.delay)
            :: List.remove_assoc s inbound.(d)
          | None -> (s, l.Topology.delay) :: inbound.(d)))
    part.Partition.cut;
  let clock = Clock.create ~shards:k ~horizon ~inbound in
  (* A shard's domain returns its failure instead of raising, after
     aborting the clock, so every sibling stops waiting and every
     domain can be joined. *)
  let run_shard i () =
    let started = ref None in
    match
      (* Sources start only for pairs whose sending CE this shard owns;
         the workload still draws for every pair, so each armed pair's
         substream is byte-identical to the sequential run. *)
      let sc, fates =
        replica cfg ~canonical:(i = 0)
          ~only:(fun (a : Site.t) _ -> owner.(a.Site.ce_node) = i)
      in
      let sh = Shard.create ~id:i ~part ~exchange:ex sc in
      started := Some sh;
      drive sh clock;
      (* The shard's close-out, as {!sequential}'s [Scenario.run]. *)
      Scenario.finish sc;
      (sh, (sc, fates), Registry.snapshot ())
    with
    | r -> Ok r
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      Clock.abort clock;
      let at = match !started with Some sh -> Shard.now sh | None -> 0.0 in
      Error { at; exn; bt }
  in
  let (shards, replicas, leftover, registry_json), registry =
    Registry.scoped (fun () ->
        let domains = Array.init k (fun i -> Domain.spawn (run_shard i)) in
        let joined = Array.map Domain.join domains in
        Option.iter
          (fun f -> Printexc.raise_with_backtrace f.exn f.bt)
          (first_failure joined);
        let cols =
          Array.map (function Ok r -> r | Error _ -> assert false) joined
        in
        (* Merge every shard's metric cells into the scope, in shard
           order (associative, so the order only pins float
           rounding). *)
        Array.iter (fun (_, _, snap) -> Registry.absorb snap) cols;
        let shards = Array.map (fun (sh, _, _) -> sh) cols in
        (* Post-horizon cross-shard packets: the sequential run
           scheduled their propagation events (and never executed
           them); re-schedule them on the destination replica so
           [sim.scheduled] agrees. *)
        let leftover =
          Array.fold_left
            (fun acc sh -> acc + Shard.requeue_leftovers sh) 0 shards
        in
        ( shards, Array.map (fun (_, r, _) -> r) cols, leftover,
          Registry.to_json ~trace_events:0 () ))
  in
  (* [replicas] is in shard order, so the merge orders fates by (time,
     shard, observation order). *)
  { (outcome ~horizon ~registry ~registry_json replicas) with
    shards = k;
    sizes = Partition.sizes part;
    cut_links = List.length part.Partition.cut;
    lookahead = Clock.lookahead clock;
    exchanged = Array.fold_left (fun acc sh -> acc + Shard.sent sh) 0 shards;
    leftover;
    overflow = Exchange.overflows ex }

let run_sequential cfg = owned_run (fun () -> sequential cfg)

let run_parallel (cfg : config) =
  if cfg.shards < 1 then invalid_arg "Runner.run_parallel: shards < 1";
  owned_run @@ fun () ->
  if cfg.shards = 1 then sequential cfg
  else
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
    if part.Partition.shards = 1 then sequential cfg else sharded cfg part
