module Engine = Mvpn_sim.Engine
module Port = Mvpn_qos.Port
module Queue_disc = Mvpn_qos.Queue_disc
module T = Mvpn_telemetry

(* Dispatch-ledger kind for the sampler's own tick events. *)
let k_sample = Mvpn_sim.Profile.register_kind "telemetry.sample"

let default_interval = 1.0

(* The per-run state is plain fields: previous cumulative counts for
   the delta series, cumulative per-(vpn, band) fate tallies fed by
   [observe_fate]. Series handles are process-wide registry metrics;
   the state here belongs to one scenario replica.

   Shard determinism: every shard replica runs the same tick schedule,
   so every replica's series carry the same sample times. A non-owner
   replica sees no traffic on a port (and no fates for pairs it did
   not arm), so it contributes exactly 0.0 or 0 at every sample; the
   cross-domain merge ([Registry.absorb] summing values at equal
   times) therefore reproduces the sequential series bit-for-bit —
   [x +. 0.0 = x] exactly for the finite non-negative values recorded
   here. Host-scope series (GC) sum real per-domain values and are
   excluded from determinism-gated exports. *)
type t = {
  sc : Scenario.t;
  interval : float;
  link_ids : int array;
  link_util : T.Timeseries.t array;
  link_prev_bytes : int array;
  band_depth : T.Timeseries.t array;
  band_drops : T.Timeseries.t array;
  band_prev_drops : int array;
  slo_good : T.Timeseries.t array array;  (* [vpn].(band) *)
  slo_bad : T.Timeseries.t array array;
  vpn_present : bool array;
  good_cells : int array array;
  bad_cells : int array array;
  prev_good : int array array;
  prev_bad : int array array;
  (* [latency > bound] marks a delivery bad, mirroring
     [Slo.observe_delivery] with the stock per-band objectives. *)
  band_bounds : float array;  (* nan = no latency bound *)
  gc_minor : T.Timeseries.t;
  mutable prev_minor : float;
}

let series_capacity = T.Timeseries.default_capacity

let sim_series name = T.Registry.series ~capacity:series_capacity name

let host_series name =
  T.Registry.series ~capacity:series_capacity ~scope:T.Timeseries.Host name

let link_series id = sim_series (Printf.sprintf "ts.link.%d.util" id)

let depth_series b = sim_series (Printf.sprintf "ts.band.%d.depth_pkts" b)

let drops_series b = sim_series (Printf.sprintf "ts.band.%d.drops" b)

let good_series ~vpn ~band =
  sim_series (Printf.sprintf "ts.slo.v%d.b%d.good" vpn band)

let bad_series ~vpn ~band =
  sim_series (Printf.sprintf "ts.slo.v%d.b%d.bad" vpn band)

let slo_target ~band = (Qos_mapping.default_objective band).T.Slo.target

let burn ~target ~good ~bad =
  let budget = 1.0 -. target in
  Array.init (min (Array.length good) (Array.length bad)) (fun i ->
      let time, g = good.(i) and _, b = bad.(i) in
      let total = g +. b in
      (time, if total > 0.0 && budget > 0.0 then b /. total /. budget else 0.0))

let burn_series () =
  List.filter_map
    (fun name ->
       match
         Scanf.sscanf_opt name "ts.slo.v%d.b%d.good" (fun v b -> (v, b))
       with
       | None -> None
       | Some (vpn, band) ->
         (match
            ( T.Registry.find_series name,
              T.Registry.find_series
                (Printf.sprintf "ts.slo.v%d.b%d.bad" vpn band) )
          with
          | Some good, Some bad when T.Timeseries.scope good = T.Timeseries.Sim
            ->
            Some
              ( Printf.sprintf "ts.slo.v%d.b%d.burn" vpn band,
                burn ~target:(slo_target ~band)
                  ~good:(T.Timeseries.samples good)
                  ~bad:(T.Timeseries.samples bad) )
          | _ -> None))
    (T.Registry.names ())

let observe_fate t ~time:_ ~vpn ~band ~dropped ~latency =
  if vpn < Array.length t.vpn_present && t.vpn_present.(vpn)
  && band < Qos_mapping.band_count then begin
    let bad =
      dropped
      || (let bound = t.band_bounds.(band) in
          Float.is_finite bound && latency > bound)
    in
    if bad then t.bad_cells.(vpn).(band) <- t.bad_cells.(vpn).(band) + 1
    else t.good_cells.(vpn).(band) <- t.good_cells.(vpn).(band) + 1
  end

let sample t =
  let net = Scenario.network t.sc in
  let now = Engine.now (Scenario.engine t.sc) in
  (* Per-link utilization: delivered-bytes delta over the interval,
     against capacity. [Port.counters] are plain always-on fields, so
     the read is exact mid-window (the coalesced telemetry counters
     are not). *)
  Array.iteri
    (fun i link_id ->
       let port = Network.port net ~link_id in
       let c = Port.counters port in
       let bytes = c.Port.bytes_delivered in
       let bw = (Port.link port).Mvpn_sim.Topology.bandwidth in
       let util =
         float_of_int ((bytes - t.link_prev_bytes.(i)) * 8)
         /. (bw *. t.interval)
       in
       t.link_prev_bytes.(i) <- bytes;
       T.Timeseries.add t.link_util.(i) ~time:now util)
    t.link_ids;
  (* Per-band queue depth (instantaneous, packets) and drop deltas,
     aggregated over the core ports. *)
  let bands = Qos_mapping.band_count in
  let depth = Array.make bands 0 and drops = Array.make bands 0 in
  Array.iter
    (fun link_id ->
       let port = Network.port net ~link_id in
       let stats = Queue_disc.stats (Port.qdisc port) in
       Array.iteri
         (fun b (s : Queue_disc.band_stats) ->
            if b < bands then begin
              depth.(b) <-
                depth.(b) + s.Queue_disc.enqueued - s.Queue_disc.dequeued
                - s.Queue_disc.tail_dropped - s.Queue_disc.red_dropped;
              drops.(b) <-
                drops.(b) + s.Queue_disc.tail_dropped
                + s.Queue_disc.red_dropped
            end)
         stats)
    t.link_ids;
  for b = 0 to bands - 1 do
    T.Timeseries.add t.band_depth.(b) ~time:now (float_of_int depth.(b));
    T.Timeseries.add t.band_drops.(b) ~time:now
      (float_of_int (drops.(b) - t.band_prev_drops.(b)));
    t.band_prev_drops.(b) <- drops.(b)
  done;
  (* Per-(vpn, band) SLO material: good/bad deliveries this interval.
     Counts are summable across shards — the burn rate itself is a
     ratio and is derived at export time from the merged sums. *)
  Array.iteri
    (fun vpn present ->
       if present then
         for b = 0 to bands - 1 do
           let g = t.good_cells.(vpn).(b) and bd = t.bad_cells.(vpn).(b) in
           T.Timeseries.add t.slo_good.(vpn).(b) ~time:now
             (float_of_int (g - t.prev_good.(vpn).(b)));
           T.Timeseries.add t.slo_bad.(vpn).(b) ~time:now
             (float_of_int (bd - t.prev_bad.(vpn).(b)));
           t.prev_good.(vpn).(b) <- g;
           t.prev_bad.(vpn).(b) <- bd
         done)
    t.vpn_present;
  (* Host scope: this domain's allocation rate, for overhead forensics.
     Never part of a cross-K determinism gate. *)
  let mw = Gc.minor_words () in
  T.Timeseries.add t.gc_minor ~time:now (mw -. t.prev_minor);
  t.prev_minor <- mw

let start ?(interval = default_interval) ?until sc =
  let link_ids = Array.of_list (Scenario.core_link_ids sc) in
  let bands = Qos_mapping.band_count in
  let max_vpn =
    Array.fold_left
      (fun acc (s : Site.t) -> Stdlib.max acc s.Site.vpn)
      0 (Scenario.sites sc)
  in
  let vpn_present = Array.make (max_vpn + 1) false in
  vpn_present.(0) <- true;  (* un-tenanted traffic books on vpn 0 *)
  Array.iter
    (fun (s : Site.t) -> vpn_present.(s.Site.vpn) <- true)
    (Scenario.sites sc);
  let per_vpn mk =
    Array.init (max_vpn + 1) (fun vpn ->
        if vpn_present.(vpn) then
          Array.init bands (fun band -> mk ~vpn ~band)
        else [||])
  in
  let t =
    { sc; interval;
      link_ids;
      link_util = Array.map link_series link_ids;
      link_prev_bytes = Array.make (Array.length link_ids) 0;
      band_depth = Array.init bands depth_series;
      band_drops = Array.init bands drops_series;
      band_prev_drops = Array.make bands 0;
      slo_good = per_vpn good_series;
      slo_bad = per_vpn bad_series;
      vpn_present;
      good_cells = Array.make_matrix (max_vpn + 1) bands 0;
      bad_cells = Array.make_matrix (max_vpn + 1) bands 0;
      prev_good = Array.make_matrix (max_vpn + 1) bands 0;
      prev_bad = Array.make_matrix (max_vpn + 1) bands 0;
      band_bounds =
        Array.init bands (fun band ->
            match (Qos_mapping.default_objective band).T.Slo.latency_p99 with
            | Some bound -> bound
            | None -> Float.nan);
      gc_minor = host_series "ts.gc.minor_words";
      prev_minor = Gc.minor_words () }
  in
  let (_stop : unit -> unit) =
    Engine.every (Scenario.engine sc) ~kind:k_sample ~interval ?until
      (fun () -> sample t)
  in
  t
