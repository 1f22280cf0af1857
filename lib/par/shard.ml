module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Scenario = Mvpn_core.Scenario
module Network = Mvpn_core.Network
module Port = Mvpn_qos.Port
module Packet = Mvpn_net.Packet

type t = {
  sid : int;
  net : Network.t;
  eng : Engine.t;
  exchange : Exchange.t;
  inbox : Exchange.inbox;  (* drained, not yet scheduled *)
  (* [from.(n)] is [Some n]: the receive path's neighbour argument,
     built once per replica instead of once per import. *)
  from : int option array;
  (* Arrival and send time of an outbound packet, read by
     [Exchange.send]. *)
  out_cell : floatarray;
  (* An inbound arrival, popped from the inbox and handed on as the
     import event's exact key. *)
  key_cell : floatarray;
  (* The import ring: packets whose receive events are scheduled and
     not yet run, oldest at [im_head], capacity a power of two. Kept in
     (arrival, scheduling order), the order the engine runs those
     events in, so each import event takes the head and one pre-built
     [import_fire] closure serves them all (the [Port] delay-line
     idiom). *)
  mutable im_arrival : floatarray;
  mutable im_packet : Packet.t array;
  mutable im_src : int array;
  mutable im_dst : int array;
  mutable im_head : int;
  mutable im_len : int;
  mutable import_fire : unit -> unit;
  mutable sent : int;
  (* [owed.(j)]: packets imported from shard [j] whose records have
     not yet gone back to [j]'s pool. *)
  owed : int array;
}

let im_grow t =
  let cap = Array.length t.im_packet in
  let n = 2 * cap in
  let arrival = Float.Array.make n 0.0 in
  let packet = Array.make n Packet.null in
  let src = Array.make n 0 and dst = Array.make n 0 in
  for k = 0 to t.im_len - 1 do
    let i = (t.im_head + k) land (cap - 1) in
    Float.Array.set arrival k (Float.Array.get t.im_arrival i);
    packet.(k) <- t.im_packet.(i);
    src.(k) <- t.im_src.(i);
    dst.(k) <- t.im_dst.(i)
  done;
  t.im_arrival <- arrival;
  t.im_packet <- packet;
  t.im_src <- src;
  t.im_dst <- dst;
  t.im_head <- 0

(* Take the inbox's least message into the import ring and schedule
   its receive event at its exact arrival. The ring entry goes behind
   every entry arriving at or before it: the tail, in a lookahead
   window, where each window's imports all run before the next
   window's are scheduled. Only an epoch-barrier run, where an import
   can be scheduled before an earlier-arriving one is drained, ever
   shifts entries. *)
let schedule_import t =
  let s = Exchange.pop t.inbox ~key_out:t.key_cell in
  let src = Exchange.src_shard t.inbox s in
  t.owed.(src) <- t.owed.(src) + 1;
  if t.im_len = Array.length t.im_packet then im_grow t;
  let mask = Array.length t.im_packet - 1 in
  let a = Float.Array.get t.key_cell 0 in
  let j = ref (t.im_head + t.im_len) in
  while
    !j > t.im_head && Float.Array.get t.im_arrival ((!j - 1) land mask) > a
  do
    let d = !j land mask and p = (!j - 1) land mask in
    Float.Array.set t.im_arrival d (Float.Array.get t.im_arrival p);
    t.im_packet.(d) <- t.im_packet.(p);
    t.im_src.(d) <- t.im_src.(p);
    t.im_dst.(d) <- t.im_dst.(p);
    decr j
  done;
  let d = !j land mask in
  Float.Array.set t.im_arrival d a;
  t.im_packet.(d) <- Exchange.packet t.inbox s;
  t.im_src.(d) <- Exchange.src_node t.inbox s;
  t.im_dst.(d) <- Exchange.dst_node t.inbox s;
  t.im_len <- t.im_len + 1;
  Engine.schedule_at_cell t.eng t.key_cell t.import_fire

(* An import event: the ring's head packet arrives over its cut link. *)
let import t =
  let i = t.im_head in
  let packet = t.im_packet.(i) in
  t.im_packet.(i) <- Packet.null;
  t.im_head <- (i + 1) land (Array.length t.im_packet - 1);
  t.im_len <- t.im_len - 1;
  Network.note_import t.net;
  Network.receive t.net t.im_dst.(i) ~from:t.from.(t.im_src.(i)) packet

let create ~id ~part ~exchange sc =
  let net = Scenario.network sc in
  let eng = Scenario.engine sc in
  let t =
    { sid = id; net; eng; exchange; inbox = Exchange.inbox ();
      from =
        Array.init (Topology.node_count (Network.topology net)) Option.some;
      out_cell = Float.Array.make 2 0.0; key_cell = Float.Array.make 1 0.0;
      im_arrival = Float.Array.make 16 0.0;
      im_packet = Array.make 16 Packet.null; im_src = Array.make 16 0;
      im_dst = Array.make 16 0; im_head = 0; im_len = 0;
      import_fire = ignore; sent = 0;
      owed = Array.make part.Partition.shards 0 }
  in
  t.import_fire <- (fun () -> import t);
  (* Outbound cut ports hand finished transmissions to the exchange
     instead of scheduling the propagation event locally. The arrival
     is [now +. delay], the key the port's own propagation event would
     have had. *)
  let owner = part.Partition.owner in
  List.iter
    (fun (l : Topology.link) ->
       if owner.(l.Topology.src) = id then begin
         let dst_shard = owner.(l.Topology.dst) in
         let src_node = l.Topology.src and dst_node = l.Topology.dst in
         Port.set_handoff
           (Network.port net ~link_id:l.Topology.id)
           (Some
              (fun packet ->
                 t.sent <- t.sent + 1;
                 Network.note_export net;
                 Float.Array.set t.out_cell 0
                   (Engine.now eng +. l.Topology.delay);
                 Float.Array.set t.out_cell 1 (Engine.now eng);
                 Exchange.send exchange ~src:id ~dst:dst_shard t.out_cell
                   ~src_node ~dst_node packet))
       end)
    part.Partition.cut;
  t

let id t = t.sid

let now t = Engine.now t.eng

(* At each window edge the shard first settles its pool with its
   neighbours: it adopts the records they sent home, and sends home as
   many retired records as it has imported from each, so every
   domain's pool gets back what it exported. *)
let ingest t ~bound ~inclusive =
  Exchange.take_home t.exchange ~src:t.sid;
  for j = 0 to Array.length t.owed - 1 do
    let n = t.owed.(j) in
    if n > 0 && Packet.pool_size () > 0 then
      t.owed.(j) <- n - Exchange.send_home t.exchange ~src:j ~dst:t.sid n
  done;
  Exchange.drain_into t.exchange ~dst:t.sid t.inbox;
  while Exchange.ready t.inbox ~bound ~inclusive do
    schedule_import t
  done

let requeue_leftovers t =
  let n = Exchange.length t.inbox in
  for _ = 1 to n do
    schedule_import t
  done;
  n

let run_before t ~before = Engine.run_before t.eng ~before

let run_to t ~until = Engine.run ~until t.eng

let peek t = Engine.peek_time t.eng

let sent t = t.sent
