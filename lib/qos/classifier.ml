module Prefix = Mvpn_net.Prefix
module Flow = Mvpn_net.Flow
module Packet = Mvpn_net.Packet
module Dscp = Mvpn_net.Dscp

type 'a rule = {
  src : Prefix.t option;
  dst : Prefix.t option;
  proto : Flow.proto option;
  src_port : (int * int) option;
  dst_port : (int * int) option;
  dscp : Dscp.t option;
  action : 'a;
}

let rule ?src ?dst ?proto ?src_port ?dst_port ?dscp action =
  { src; dst; proto; src_port; dst_port; dscp; action }

type 'a t = 'a rule list

let create rules = rules

let needs_flow r =
  r.src <> None || r.dst <> None || r.proto <> None || r.src_port <> None
  || r.dst_port <> None

let in_range (lo, hi) v = v >= lo && v <= hi

let flow_matches r (f : Flow.t) =
  (match r.src with Some p -> Prefix.mem f.Flow.src p | None -> true)
  && (match r.dst with Some p -> Prefix.mem f.Flow.dst p | None -> true)
  && (match r.proto with Some pr -> pr = f.Flow.proto | None -> true)
  && (match r.src_port with
      | Some range -> in_range range f.Flow.src_port
      | None -> true)
  && (match r.dst_port with
      | Some range -> in_range range f.Flow.dst_port
      | None -> true)

let matches r ~flow ~dscp =
  (match r.dscp with Some d -> Dscp.equal d dscp | None -> true)
  &&
  if needs_flow r then
    match flow with Some f -> flow_matches r f | None -> false
  else true

let classify t packet =
  let flow = Packet.classifiable_flow packet in
  let dscp = Packet.visible_dscp packet in
  List.find_map
    (fun r -> if matches r ~flow ~dscp then Some r.action else None)
    t

let classify_flow t ?(dscp = Dscp.best_effort) flow =
  List.find_map
    (fun r -> if matches r ~flow:(Some flow) ~dscp then Some r.action else None)
    t
