module Topology = Mvpn_sim.Topology
module Engine = Mvpn_sim.Engine
module Prefix = Mvpn_net.Prefix
module Bgp = Mvpn_routing.Bgp

type t = {
  bb_a : Backbone.t;
  bb_b : Backbone.t;
  net : Network.t;
  border_a : int;
  border_b : int;
  mutable vpn_a : Mpls_vpn.t option;
  mutable vpn_b : Mpls_vpn.t option;
  mutable ebgp_messages : int;
}

let backbone_b t = t.bb_b
let network t = t.net

let get_vpn = function
  | Some v -> v
  | None -> invalid_arg "Interprovider: VPN service not deployed yet"

let vpn_a t = get_vpn t.vpn_a
let vpn_b t = get_vpn t.vpn_b

let border t = (t.border_a, t.border_b)

let ebgp_messages t = t.ebgp_messages

(* Both backbones in one topology, with Backbone's 45 Mb/s cores, and
   the 45 Mb/s, 2 ms border link between provider A's POP 0 and
   provider B's POP 0; [attach] adds the sites (so their access links
   exist) before [net_of] wraps the topology. *)
let build ~pops_per_provider ~attach ~net_of =
  let topo = Topology.create () in
  let bb_a =
    Backbone.build ~pops:pops_per_provider ~into:topo ~loopback_octet:255 ()
  in
  let bb_b =
    Backbone.build ~pops:pops_per_provider ~into:topo ~loopback_octet:254 ()
  in
  let border_a = (Backbone.pops bb_a).(0) in
  let border_b = (Backbone.pops bb_b).(0) in
  ignore
    (Topology.connect topo border_a border_b ~bandwidth:45e6 ~delay:0.002);
  attach bb_a bb_b;
  let net = net_of topo in
  { bb_a; bb_b; net; border_a; border_b; vpn_a = None; vpn_b = None;
    ebgp_messages = 0 }

(* Per-VRF eBGP between the border PEs: each provider originates its
   VPN's prefixes; what the peer learns becomes Option-A external
   routes pointing across the border link. *)
let exchange_vpn_routes t ~vpn ~(sites_a : Site.t list)
    ~(sites_b : Site.t list) =
  let bgp = Bgp.create () in
  let speaker_a = Bgp.add_speaker bgp ~asn:65001 in
  let speaker_b = Bgp.add_speaker bgp ~asn:65002 in
  Bgp.peer bgp speaker_a speaker_b;
  List.iter
    (fun (s : Site.t) -> Bgp.originate bgp speaker_a s.Site.prefix)
    sites_a;
  List.iter
    (fun (s : Site.t) -> Bgp.originate bgp speaker_b s.Site.prefix)
    sites_b;
  ignore (Bgp.run bgp);
  t.ebgp_messages <- t.ebgp_messages + Bgp.messages_sent bgp;
  let external_site_id prefix =
    900_000 + (Hashtbl.hash (Prefix.to_string prefix) land 0xFFFF)
  in
  List.iter
    (fun (r : Bgp.route) ->
       if r.Bgp.learned_from = speaker_b then
         Mpls_vpn.add_external_route (vpn_a t) ~pe:t.border_a ~vpn
           ~prefix:r.Bgp.prefix ~via:t.border_b
           ~site_id:(external_site_id r.Bgp.prefix))
    (Bgp.best_routes bgp speaker_a);
  List.iter
    (fun (r : Bgp.route) ->
       if r.Bgp.learned_from = speaker_a then
         Mpls_vpn.add_external_route (vpn_b t) ~pe:t.border_b ~vpn
           ~prefix:r.Bgp.prefix ~via:t.border_a
           ~site_id:(external_site_id r.Bgp.prefix))
    (Bgp.best_routes bgp speaker_b)

let deploy_vpn ?(pops_per_provider = 6) ?(policy = Qos_mapping.Best_effort)
    ~vpn ~sites_a ~sites_b () =
  let engine = Engine.create () in
  let made_a = ref [] and made_b = ref [] in
  let attach bb_a bb_b =
    let attach_list bb made base specs =
      List.iteri
        (fun i (pop, prefix) ->
           let s =
             Backbone.attach_site bb ~id:(base + i)
               ~name:(Printf.sprintf "s%d" (base + i)) ~vpn ~prefix ~pop
           in
           made := s :: !made)
        specs
    in
    attach_list bb_a made_a 1000 sites_a;
    attach_list bb_b made_b 2000 sites_b
  in
  let t =
    build ~pops_per_provider ~attach
      ~net_of:(fun topo -> Network.create ~policy engine topo)
  in
  let sites_a = List.rev !made_a and sites_b = List.rev !made_b in
  let in_provider bb node =
    Array.exists (fun p -> p = node) (Backbone.pops bb)
    || List.exists (fun (s : Site.t) -> s.Site.ce_node = node)
         (Backbone.sites bb)
  in
  t.vpn_a <-
    Some
      (Mpls_vpn.deploy ~domain:(in_provider t.bb_a) ~net:t.net
         ~backbone:t.bb_a ~sites:sites_a ());
  t.vpn_b <-
    Some
      (Mpls_vpn.deploy ~domain:(in_provider t.bb_b) ~net:t.net
         ~backbone:t.bb_b ~sites:sites_b ());
  exchange_vpn_routes t ~vpn ~sites_a ~sites_b;
  (t, engine, sites_a, sites_b)
