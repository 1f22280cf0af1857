module Packet = Mvpn_net.Packet
module Ipv4 = Mvpn_net.Ipv4
module Flow = Mvpn_net.Flow

let m_encap = Mvpn_telemetry.Registry.counter "ipsec.encap"
let m_encap_bytes = Mvpn_telemetry.Registry.counter "ipsec.encap_bytes"
let m_decap = Mvpn_telemetry.Registry.counter "ipsec.decap"
let m_replay_drop = Mvpn_telemetry.Registry.counter "ipsec.replay_drop"

type t = {
  copy_tos : bool;
  cipher : Crypto.cipher;
  local : Ipv4.t;
  remote : Ipv4.t;
  out_sa : Sa.t;
  in_sa : Sa.t;
  (* ESP sequence number travelling with each in-flight packet, keyed
     by packet uid (the simulation's stand-in for the ESP header
     field). *)
  in_flight_seq : (int, int) Hashtbl.t;
  mutable sent : int;
  mutable replay_dropped : int;
}

let create ?(copy_tos = false) ~cipher ~local ~remote () =
  { copy_tos; cipher; local; remote;
    out_sa = Sa.create ~spi:0x1001;
    in_sa = Sa.create ~spi:0x1002;
    in_flight_seq = Hashtbl.create 64; sent = 0; replay_dropped = 0 }

let copy_tos t = t.copy_tos

let cipher t = t.cipher

let encapsulate t packet =
  let payload = packet.Packet.size in
  let overhead = Esp.overhead t.cipher ~payload in
  Packet.encapsulate packet ~src:t.local ~dst:t.remote ~proto:Flow.Esp
    ~overhead ~copy_tos:t.copy_tos;
  packet.Packet.encrypted <- t.cipher <> Crypto.Null;
  let seq = Sa.next_seq t.out_sa in
  Hashtbl.replace t.in_flight_seq packet.Packet.uid seq;
  Sa.account t.out_sa ~bytes:payload;
  t.sent <- t.sent + 1;
  Mvpn_telemetry.Counter.incr m_encap;
  Mvpn_telemetry.Counter.add m_encap_bytes payload;
  Crypto.processing_delay t.cipher ~bytes:payload

let packets_sent t = t.sent

let replay_drops t = t.replay_dropped

type decap_result =
  | Decapsulated of float
  | Replayed
  | Not_ours

let decapsulate t packet =
  if not (Packet.has_outer packet) then Not_ours
  else
    let outer = Packet.outer_header packet in
    if not (Ipv4.equal outer.Packet.dst t.remote) then Not_ours
    else begin
      let seq =
        match Hashtbl.find_opt t.in_flight_seq packet.Packet.uid with
        | Some s -> s
        | None -> 1  (* unknown provenance: treat as the oldest *)
      in
      match Sa.check_replay t.in_sa seq with
      | Replay.Duplicate | Replay.Too_old ->
        t.replay_dropped <- t.replay_dropped + 1;
        Mvpn_telemetry.Counter.incr m_replay_drop;
        Replayed
      | Replay.Accepted ->
        let payload = packet.Packet.size - packet.Packet.encap_bytes in
        Packet.decapsulate packet;
        Sa.account t.in_sa ~bytes:payload;
        Mvpn_telemetry.Counter.incr m_decap;
        Decapsulated (Crypto.processing_delay t.cipher ~bytes:payload)
    end
