module Packet = Mvpn_net.Packet
module Ldp = Mvpn_mpls.Ldp
module Plane = Mvpn_mpls.Plane
module Label = Mvpn_mpls.Label
module Fec = Mvpn_mpls.Fec
module Spf = Mvpn_routing.Spf

type endpoint = {
  pe : int;
  on_deliver : Packet.t -> unit;
}

let control_word_bytes = 4

type side = {
  endpoint : endpoint;
  label : int;  (* the label this side's PE expects for inbound frames *)
  mutable seq_out : int;  (* next sequence number when sending from here *)
  mutable expected_in : int;  (* receiver window position *)
}

type pw = {
  id : int;
  side_a : side;
  side_b : side;
  mutable delivered : int;
  mutable misordered : int;
}

type t = {
  net : Network.t;
  backbone : Backbone.t;
  (* (pe node, pseudowire label) -> which pseudowire side receives *)
  demux : (int * int, pw * bool (* toward side a *)) Hashtbl.t;
  pws : (int, pw) Hashtbl.t;
  (* In-flight sequence numbers, keyed by packet uid (the control
     word's contents in the model). *)
  in_flight : (int, int) Hashtbl.t;
  mutable next_id : int;
}

let pe_loopback t pe =
  match Backbone.pop_of_node t.backbone pe with
  | Some pop -> Backbone.loopback t.backbone ~pop
  | None -> invalid_arg (Printf.sprintf "L2vpn: node %d is not a PE" pe)

let receive_side t pw ~toward_a packet =
  let side = if toward_a then pw.side_a else pw.side_b in
  ignore (Packet.pop_packed packet);
  packet.Packet.size <- packet.Packet.size - control_word_bytes;
  (match Hashtbl.find_opt t.in_flight packet.Packet.uid with
   | Some seq ->
     Hashtbl.remove t.in_flight packet.Packet.uid;
     if seq < side.expected_in then pw.misordered <- pw.misordered + 1
     else side.expected_in <- seq + 1
   | None -> ());
  pw.delivered <- pw.delivered + 1;
  Network.deliver_to t.net ~node:side.endpoint.pe side.endpoint.on_deliver
    packet

let install_demux t pe =
  Dataplane.add_interceptor (Network.dataplane t.net) pe (fun ~from packet ->
      ignore from;
      let top = Packet.top_packed packet in
      if top < 0 then Dataplane.Continue
      else
        match Hashtbl.find_opt t.demux (pe, Packet.Shim.label top) with
        | Some (pw, toward_a) ->
          receive_side t pw ~toward_a packet;
          Dataplane.Consumed
        | None -> Dataplane.Continue)

let deploy ~net ~backbone =
  let topo = Network.topology net in
  let fecs =
    Array.to_list
      (Array.mapi
         (fun pop node -> (Backbone.loopback backbone ~pop, node))
         (Backbone.pops backbone))
  in
  (* The transport LSPs live in the plane; nothing reads the session. *)
  ignore (Ldp.distribute topo (Network.plane net) ~fecs);
  let t =
    { net; backbone; demux = Hashtbl.create 32;
      pws = Hashtbl.create 16; in_flight = Hashtbl.create 64; next_id = 1 }
  in
  Array.iter (fun pe -> install_demux t pe) (Backbone.pops backbone);
  t

let create_pw t ~a ~b =
  let topo = Network.topology t.net in
  (* Both directions must be reachable before we commit labels. *)
  if a.pe <> b.pe
  && (Spf.shortest_path topo ~src:a.pe ~dst:b.pe = None
      || Spf.shortest_path topo ~src:b.pe ~dst:a.pe = None)
  then Error "PEs cannot reach each other"
  else begin
    let plane = Network.plane t.net in
    let label_a = Label.Allocator.alloc (Plane.allocator plane a.pe) in
    let label_b = Label.Allocator.alloc (Plane.allocator plane b.pe) in
    let pw =
      { id = t.next_id;
        side_a = { endpoint = a; label = label_a; seq_out = 1; expected_in = 1 };
        side_b = { endpoint = b; label = label_b; seq_out = 1; expected_in = 1 };
        delivered = 0; misordered = 0 }
    in
    t.next_id <- pw.id + 1;
    Hashtbl.replace t.demux (a.pe, label_a) (pw, true);
    Hashtbl.replace t.demux (b.pe, label_b) (pw, false);
    Hashtbl.replace t.pws pw.id pw;
    Ok pw.id
  end

let find_pw t pw_id =
  match Hashtbl.find_opt t.pws pw_id with
  | Some pw -> pw
  | None -> invalid_arg (Printf.sprintf "L2vpn: unknown pseudowire %d" pw_id)

let send t ~pw ~from_a packet =
  let pw = find_pw t pw in
  let src_side = if from_a then pw.side_a else pw.side_b in
  let dst_side = if from_a then pw.side_b else pw.side_a in
  let seq = src_side.seq_out in
  src_side.seq_out <- seq + 1;
  (* The frame enters the network here, at its ingress PE, without
     that PE's pipeline: the attachment circuit hands it straight to
     the pseudowire. *)
  Network.note_inject t.net;
  if src_side.endpoint.pe = dst_side.endpoint.pe then begin
    (* Local switching: both attachment circuits on one PE. *)
    (if seq < dst_side.expected_in then pw.misordered <- pw.misordered + 1
     else dst_side.expected_in <- seq + 1);
    pw.delivered <- pw.delivered + 1;
    Network.deliver_to t.net ~node:dst_side.endpoint.pe
      dst_side.endpoint.on_deliver packet
  end
  else begin
    Hashtbl.replace t.in_flight packet.Packet.uid seq;
    packet.Packet.size <- packet.Packet.size + control_word_bytes;
    let exp = Mvpn_net.Dscp.to_exp (Packet.visible_dscp packet) in
    Packet.push_label packet ~label:dst_side.label ~exp ~ttl:64;
    let transport =
      Plane.find_ftn (Network.plane t.net) src_side.endpoint.pe
        (Fec.Prefix_fec (pe_loopback t dst_side.endpoint.pe))
    in
    match transport with
    | Some e ->
      Packet.push_label packet ~label:e.Plane.push ~exp ~ttl:64;
      Network.transmit t.net ~from:src_side.endpoint.pe ~to_:e.Plane.next_hop
        packet
    | None ->
      (* Adjacent PE under PHP: the pseudowire label travels alone. *)
      (match
         Spf.shortest_path (Network.topology t.net)
           ~src:src_side.endpoint.pe ~dst:dst_side.endpoint.pe
       with
       | Some (_ :: nh :: _) ->
         Network.transmit t.net ~from:src_side.endpoint.pe ~to_:nh packet
       | Some _ | None ->
         Network.drop_packet ~node:src_side.endpoint.pe ~packet t.net
           "pw-unreachable")
  end

let misordered t ~pw = (find_pw t pw).misordered

let delivered t ~pw = (find_pw t pw).delivered

let pw_count t = Hashtbl.length t.pws
