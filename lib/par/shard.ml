module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Registry = Mvpn_telemetry.Registry
module Scenario = Mvpn_core.Scenario
module Network = Mvpn_core.Network
module Site = Mvpn_core.Site
module Port = Mvpn_qos.Port

type result = {
  r_snapshot : Registry.snapshot;
  r_fates : Fatelog.t;
  r_leftover : Exchange.msg list;
  r_sent : int;
  r_ingested : int;
  r_scenario : Scenario.t;
}

type t = {
  sid : int;
  sc : Scenario.t;
  net : Network.t;
  eng : Engine.t;
  exchange : Exchange.t;
  mutable pending : Exchange.msg list;  (* sorted by [msg_order] *)
  fates : Fatelog.t;
  mutable sent : int;
  mutable ingested : int;
}

let msg_order (a : Exchange.msg) (b : Exchange.msg) =
  match Float.compare a.Exchange.arrival b.Exchange.arrival with
  | 0 ->
    (match Float.compare a.Exchange.sent b.Exchange.sent with
     | 0 ->
       (match Int.compare a.Exchange.src_shard b.Exchange.src_shard with
        | 0 -> Int.compare a.Exchange.seq b.Exchange.seq
        | c -> c)
     | c -> c)
  | c -> c

let create ~id ~part ~exchange ~build ?prepare ~arm () =
  let sc = build () in
  (* Every replica's build bumps this domain's metric cells; only the
     canonical replica keeps them, so deploy-time counters appear
     exactly once in the merged snapshot. [Registry.reset] only zeroes
     the calling domain's cells — concurrent builds are unaffected. *)
  if id > 0 then Registry.reset ();
  (* After the reset, so whatever [prepare] arms (e.g. the timeline
     sampler's tick events) is accounted in every shard's kept cells,
     exactly as the sequential runner accounts its own. *)
  let tap = match prepare with None -> None | Some p -> p sc in
  let net = Scenario.network sc in
  let eng = Scenario.engine sc in
  let t =
    { sid = id; sc; net; eng; exchange; pending = [];
      fates = Fatelog.create (); sent = 0; ingested = 0 }
  in
  Network.set_fate_hook net
    (Some
       (match tap with
        | None -> Fatelog.add t.fates
        | Some f ->
          fun ~time ~vpn ~band ~dropped ~latency ->
            f ~time ~vpn ~band ~dropped ~latency;
            Fatelog.add t.fates ~time ~vpn ~band ~dropped ~latency));
  (* Outbound cut ports hand finished transmissions to the exchange
     instead of scheduling the propagation event locally. *)
  let owner = part.Partition.owner in
  List.iter
    (fun (l : Topology.link) ->
       if owner.(l.Topology.src) = id then begin
         let dst_shard = owner.(l.Topology.dst) in
         let src_node = l.Topology.src and dst_node = l.Topology.dst in
         Port.set_handoff
           (Network.port net ~link_id:l.Topology.id)
           (Some
              (fun ~arrival packet ->
                 t.sent <- t.sent + 1;
                 Network.note_export net;
                 Exchange.send exchange ~src:id ~dst:dst_shard ~arrival
                   ~sent:(Engine.now eng) ~src_node ~dst_node packet))
       end)
    part.Partition.cut;
  (* Arm sources only for pairs whose sending CE this shard owns. The
     workload still performs every RNG draw for filtered pairs, so each
     armed pair's substream is byte-identical to the sequential run. *)
  arm sc ~only:(fun (a : Site.t) _ -> owner.(a.Site.ce_node) = id);
  t

let id t = t.sid

let ingest t ~bound ~inclusive =
  let fresh = Exchange.drain t.exchange ~dst:t.sid in
  if fresh <> [] then
    t.pending <- List.merge msg_order t.pending (List.sort msg_order fresh);
  let ready (m : Exchange.msg) =
    if inclusive then m.Exchange.arrival <= bound
    else m.Exchange.arrival < bound
  in
  let rec take = function
    | m :: rest when ready m ->
      t.ingested <- t.ingested + 1;
      let arrival = m.Exchange.arrival in
      let dst = m.Exchange.dst_node and src = m.Exchange.src_node in
      let packet = m.Exchange.packet in
      Engine.schedule_at t.eng ~time:arrival (fun () ->
          Network.note_import t.net;
          Network.receive t.net dst ~from:(Some src) packet);
      take rest
    | rest -> t.pending <- rest
  in
  take t.pending

let run_before t ~before = Engine.run_before t.eng ~before

let run_to t ~until = Engine.run ~until t.eng

let peek t = Engine.peek_time t.eng

let collect t =
  { r_snapshot = Registry.snapshot ();
    r_fates = t.fates;
    r_leftover = t.pending;
    r_sent = t.sent;
    r_ingested = t.ingested;
    r_scenario = t.sc }
