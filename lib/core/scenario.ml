module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4
module Flow = Mvpn_net.Flow
module Dscp = Mvpn_net.Dscp
module Sla = Mvpn_qos.Sla
module Port = Mvpn_qos.Port
module Crypto = Mvpn_ipsec.Crypto

type deployment =
  | Mpls_deployment of { policy : Qos_mapping.policy; use_te : bool }
  | Overlay_deployment of {
      policy : Qos_mapping.policy;
      cipher : Crypto.cipher;
      copy_tos : bool;
    }

type layout = { backbone : Backbone.t; sites : Site.t array }

type t = {
  engine : Engine.t;
  backbone : Backbone.t;
  net : Network.t;
  registry : Traffic.registry;
  sites : Site.t array;
  access_bandwidth : float;
  mpls : Mpls_vpn.t option;
  overlay : Overlay.t option;
  core_link_ids : int list;
  rng : Rng.t;
}

let engine t = t.engine
let network t = t.net
let backbone t = t.backbone
let registry t = t.registry
let mpls t = t.mpls
let overlay t = t.overlay
let sites t = t.sites

let site t ~vpn ~idx =
  match
    Array.find_opt
      (fun (s : Site.t) ->
         s.Site.vpn = vpn
         && s.Site.id mod 1000 = idx)
      t.sites
  with
  | Some s -> s
  | None -> raise Not_found

let site_id ~vpn ~idx = (vpn * 1000) + idx

let layout ?(pops = 12) ?(core_bandwidth = 45e6) ?core_delay
    ?(access_bandwidth = 2e6) ?(vpns = 2) ?(sites_per_vpn = 4) () =
  let bb = Backbone.build ~pops ~core_bandwidth ?core_delay () in
  let site_list = ref [] in
  for v = 1 to vpns do
    for k = 0 to sites_per_vpn - 1 do
      (* Identical prefix plan in every VPN: isolation by construction
         or not at all. *)
      let prefix = Prefix.make (Ipv4.of_octets 10 k 0 0) 16 in
      let pop = (v + (k * 3)) mod pops in
      let s =
        Backbone.attach_site ~access_bandwidth bb ~id:(site_id ~vpn:v ~idx:k)
          ~name:(Printf.sprintf "v%d-s%d" v k) ~vpn:v ~prefix ~pop
      in
      site_list := s :: !site_list
    done
  done;
  ({ backbone = bb; sites = Array.of_list (List.rev !site_list) } : layout)

let build ?backend ?pops ?core_bandwidth ?core_delay
    ?(access_bandwidth = 2e6) ?vpns ?sites_per_vpn ?(seed = 11)
    ?wred deployment =
  let ({ backbone = bb; sites } : layout) =
    layout ?pops ?core_bandwidth ?core_delay ~access_bandwidth ?vpns
      ?sites_per_vpn ()
  in
  let all_sites = Array.to_list sites in
  let engine = Engine.create ?backend () in
  let policy =
    match deployment with
    | Mpls_deployment { policy; _ } -> policy
    | Overlay_deployment { policy; _ } -> policy
  in
  let net =
    Network.create ~policy ?wred ~seed engine (Backbone.topology bb)
  in
  let core_link_ids =
    List.filter_map
      (fun (l : Topology.link) ->
         let is_pop v = Backbone.pop_of_node bb v <> None in
         if is_pop l.Topology.src && is_pop l.Topology.dst then
           Some l.Topology.id
         else None)
      (Topology.links (Backbone.topology bb))
  in
  let mpls_t, overlay_t =
    match deployment with
    | Mpls_deployment { use_te; _ } ->
      ( Some
          (Mpls_vpn.deploy ~use_te ~net ~backbone:bb ~sites:all_sites ()),
        None )
    | Overlay_deployment { cipher; copy_tos; _ } ->
      (None, Some (Overlay.deploy ~cipher ~copy_tos ~net ~sites:all_sites ()))
  in
  let registry = Traffic.registry engine in
  List.iter
    (fun (s : Site.t) ->
       Network.set_sink net s.Site.ce_node (Traffic.sink registry))
    all_sites;
  (* Overlay CEs intercept before the sink; re-install the interceptors
     (deploy already did) and keep the sink for decapsulated traffic. *)
  { engine; backbone = bb; net; registry; sites; access_bandwidth;
    mpls = mpls_t; overlay = overlay_t; core_link_ids;
    rng = Rng.create (seed * 131) }

let service_classes =
  [ ("voice", Dscp.ef, Sla.voice_spec);
    ("transactional", Dscp.af 3 1, Sla.transactional_spec);
    ("bulk", Dscp.best_effort, Sla.best_effort_spec) ]

let voice_rate = 64_000.0
let transactional_rate = 200_000.0

(* [armed = false] creates the senders (so flows are registered for
   sink-side measurement — the receive end of a pair may live in
   another shard) and performs every RNG draw of the armed path, but
   starts no arrival process: a partitioned run arms only the pairs a
   shard owns, yet each pair's substreams must be byte-identical to the
   sequential run's, so draw order cannot depend on the ownership
   filter. *)
let add_pair_workload t ~armed ~load ~start ~stop rng (a : Site.t)
    (b : Site.t) =
  let make_sender ~label ~dscp ~port =
    let flow =
      Flow.make ~proto:Flow.Udp ~src_port:port ~dst_port:port
        (Prefix.nth_host a.Site.prefix 1)
        (Prefix.nth_host b.Site.prefix 1)
    in
    Traffic.sender t.registry ~net:t.net ~src_node:a.Site.ce_node ~flow
      ~dscp ~vpn:a.Site.vpn
      ~collector:(Traffic.collector t.registry label)
      ()
  in
  let voice = make_sender ~label:"voice" ~dscp:Dscp.ef ~port:5060 in
  let r_voice = Rng.fork rng in
  if armed then
    Traffic.onoff t.engine r_voice ~start ~stop ~on_mean:1.0
      ~off_mean:1.35 ~rate_bps:voice_rate ~packet_bytes:200 voice;
  let transactional =
    make_sender ~label:"transactional" ~dscp:(Dscp.af 3 1) ~port:1433
  in
  let r_transactional = Rng.fork rng in
  if armed then
    Traffic.poisson t.engine r_transactional ~start ~stop
      ~rate_pps:(transactional_rate /. (512.0 *. 8.0))
      ~packet_bytes:512 transactional;
  let bulk = make_sender ~label:"bulk" ~dscp:Dscp.best_effort ~port:20 in
  let bulk_rate =
    Float.max 0.0
      ((load *. t.access_bandwidth) -. voice_rate -. transactional_rate)
  in
  if bulk_rate > 0.0 then begin
    let r_bulk = Rng.fork rng in
    if armed then begin
      let mean_burst_bytes = 30_000.0 in
      Traffic.pareto_bursts t.engine r_bulk ~start ~stop
        ~burst_rate:(bulk_rate /. (mean_burst_bytes *. 8.0))
        ~mean_burst_bytes bulk
    end
  end

let add_mixed_workload ?(load = 0.9) ?(start = 0.0) ?only t ~pairs
    ~duration =
  let rng = Rng.fork t.rng in
  List.iter
    (fun (a, b) ->
       let armed = match only with None -> true | Some f -> f a b in
       add_pair_workload t ~armed ~load ~start ~stop:(start +. duration) rng
         a b)
    pairs

(* Diurnal envelope for long soaks: [segments] equal windows across the
   duration, each a mixed workload whose load follows a raised-cosine
   day curve — trough at the edges, peak mid-run. One shared rng forked
   exactly once per segment regardless of the ownership filter, so a
   partitioned soak draws the identical stream per replica. *)
let diurnal_floor_load = 0.3

let add_diurnal_workload ?(peak_load = 0.9) ?(segments = 8) ?only t ~pairs
    ~duration =
  if segments < 1 then
    invalid_arg "Scenario.add_diurnal_workload: segments must be >= 1";
  if not (Float.is_finite duration && duration > 0.0) then
    invalid_arg
      "Scenario.add_diurnal_workload: duration must be finite and positive";
  let rng = Rng.fork t.rng in
  let seg = duration /. float_of_int segments in
  for i = 0 to segments - 1 do
    let phase =
      2.0 *. Float.pi *. (float_of_int i +. 0.5) /. float_of_int segments
    in
    let load =
      diurnal_floor_load
      +. (peak_load -. diurnal_floor_load) *. 0.5 *. (1.0 -. Float.cos phase)
    in
    let start = float_of_int i *. seg in
    List.iter
      (fun (a, b) ->
         let armed = match only with None -> true | Some f -> f a b in
         add_pair_workload t ~armed ~load ~start ~stop:(start +. seg) rng a
           b)
      pairs
  done

(* Sites are stored VPN by VPN; [k] is a site's index within its VPN. *)
let default_pairs t =
  let n = Array.length t.sites in
  let pairs = ref [] and k = ref 0 in
  Array.iteri
    (fun i (a : Site.t) ->
       if i > 0 && t.sites.(i - 1).Site.vpn <> a.Site.vpn then k := 0;
       if !k mod 2 = 0 && i + 1 < n && t.sites.(i + 1).Site.vpn = a.Site.vpn
       then pairs := (a, t.sites.(i + 1)) :: !pairs;
       incr k)
    t.sites;
  !pairs

(* Node → POP region, for partitioning: a POP node maps to its own
   index, a CE to its PE's POP, so a region (POP plus homed sites) is
   never split across shards and every cut is a core link. *)
let region_hint (l : layout) =
  let topo = Backbone.topology l.backbone in
  let n = Topology.node_count topo in
  let hint = Array.init n (fun v -> Backbone.pop_of_node l.backbone v) in
  Array.iter
    (fun (s : Site.t) ->
       if s.Site.ce_node < n then
         hint.(s.Site.ce_node) <- Backbone.pop_of_node l.backbone s.Site.pe_node)
    l.sites;
  fun v -> if v >= 0 && v < n then hint.(v) else None

let declare_objectives t slo =
  let vpns =
    Array.fold_left
      (fun acc (s : Site.t) ->
         if List.mem s.Site.vpn acc then acc else s.Site.vpn :: acc)
      [ 0 ] t.sites
    |> List.sort_uniq Int.compare
  in
  List.iter
    (fun vpn ->
       for band = 0 to Qos_mapping.band_count - 1 do
         Mvpn_telemetry.Slo.declare slo ~vpn ~band
           (Qos_mapping.default_objective band)
       done)
    vpns

let attach_slo ?slo t =
  let slo =
    match slo with
    | Some s -> s
    | None -> Mvpn_telemetry.Slo.create ()
  in
  declare_objectives t slo;
  Network.set_slo t.net (Some slo);
  slo

let finish t =
  Network.close_books t.net;
  (* Close out the conformance windows at the horizon so the final
     seconds are evaluated even if no packet lands after them. *)
  match Network.slo t.net with
  | Some slo -> Mvpn_telemetry.Slo.advance slo ~time:(Engine.now t.engine)
  | None -> ()

let run t ~duration =
  Engine.run ~until:duration t.engine;
  finish t

let first_pair_core_link t =
  if Array.length t.sites < 2 then None
  else
    match
      Mvpn_routing.Spf.shortest_path (Backbone.topology t.backbone)
        ~src:t.sites.(0).Site.pe_node ~dst:t.sites.(1).Site.pe_node
    with
    | Some (u :: v :: _) -> Some (u, v)
    | _ -> None

let class_report t label = Traffic.report t.registry label

let class_reports t =
  List.map (fun label -> (label, Traffic.report t.registry label))
    (Traffic.labels t.registry)

let core_link_ids t = t.core_link_ids

let core_links t =
  let is_pop v = Backbone.pop_of_node t.backbone v <> None in
  List.sort_uniq compare
    (List.filter_map
       (fun (l : Topology.link) ->
          if is_pop l.Topology.src && is_pop l.Topology.dst
          && l.Topology.src < l.Topology.dst
          then Some (l.Topology.src, l.Topology.dst)
          else None)
       (Topology.links (Backbone.topology t.backbone)))

let max_core_utilization t =
  let now = Engine.now t.engine in
  List.fold_left
    (fun acc link_id ->
       Float.max acc (Port.utilization (Network.port t.net ~link_id) ~now))
    0.0 t.core_link_ids

let core_loss_fraction t =
  let offered, dropped =
    List.fold_left
      (fun (o, d) link_id ->
         let c = Port.counters (Network.port t.net ~link_id) in
         (o + c.Port.offered, d + c.Port.dropped_queue))
      (0, 0) t.core_link_ids
  in
  if offered = 0 then 0.0 else float_of_int dropped /. float_of_int offered
