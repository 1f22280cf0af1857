module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Packet = Mvpn_net.Packet

(* Dispatch-ledger kinds for the two wire-path events — the pair
   ROADMAP's tx->propagate fusion lever would collapse. *)
let k_tx = Mvpn_sim.Profile.register_kind "port.tx"

let k_propagate = Mvpn_sim.Profile.register_kind "port.propagate"

type fault = { loss : float; corrupt : float; seed : int }

type t = {
  engine : Engine.t;
  link : Topology.link;
  qdisc : Queue_disc.t;
  classify : Packet.t -> int;
  on_deliver : Packet.t -> unit;
  on_txstart : Packet.t -> unit;
  on_drop : reason:string -> Packet.t -> unit;
  mutable busy : bool;
  mutable fault : fault option;
  mutable handoff : (Packet.t -> unit) option;
  mutable offered : int;
  mutable delivered : int;
  mutable dropped_queue : int;
  mutable dropped_link_down : int;
  mutable dropped_fault : int;
  mutable bytes_delivered : int;
  (* busy-time accumulator and a copy of the link bandwidth live in
     floatarray cells so the per-packet service-time update is unboxed
     arithmetic plus an unboxed store, not a boxed-field chase and a
     fresh float box. The expression itself stays size *. 8.0 /. bw —
     bit-identical to the original — only the operand load changes. *)
  acc : floatarray;
  bw : floatarray;
  (* Serialization time handed to [Engine.schedule_cell] unboxed. *)
  tx_cell : floatarray;
  (* The delay line: a FIFO ring of the packets on the wire, oldest at
     [r_head], capacity a power of two. The link delay is immutable and
     serializations complete one at a time, so propagation events of
     this port fire in ring order and each pops the head — one
     pre-built [prop_fire] closure serves them all. While a packet
     serializes it already sits at the ring's tail (behind every packet
     propagating), which spares an in-flight slot; a link-down drop or
     a cut-link handoff at tx completion takes it back off the tail.
     Slots are int-indexed, so the only pointer stores per hop are the
     packet's store and clear. *)
  mutable ring : Packet.t array;
  mutable r_head : int;
  mutable r_len : int;
  mutable tx_fire : unit -> unit;
  mutable prop_fire : unit -> unit;
}

type counters = {
  offered : int;
  delivered : int;
  dropped_queue : int;
  dropped_link_down : int;
  dropped_fault : int;
  bytes_delivered : int;
  busy_seconds : float;
}

let nop_txstart (_ : Packet.t) = ()
let nop_drop ~reason:(_ : string) (_ : Packet.t) = ()

let set_fault t ?(loss = 0.0) ?(corrupt = 0.0) ~seed () =
  if loss < 0.0 || loss > 1.0 || corrupt < 0.0 || corrupt > 1.0 then
    invalid_arg "Port.set_fault: probabilities must be within [0, 1]";
  t.fault <- Some { loss; corrupt; seed }

let clear_fault t = t.fault <- None

let set_handoff t h = t.handoff <- h

(* Stateless per-packet fault decision: a splitmix64 finalizer over
   (uid, seed, salt) mapped to [0, 1). Keyed on the packet uid rather
   than drawn from a stream so the verdict for a given packet does not
   depend on how many other packets happened to cross the port first —
   what makes seeded chaos runs comparable across FRR on/off. *)
let fault_uniform ~uid ~seed ~salt =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int uid) 0x9E3779B97F4A7C15L)
      (Int64.add (Int64.mul (Int64.of_int seed) 0xBF58476D1CE4E5B9L)
         (Int64.of_int salt))
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53

let fault_verdict t (packet : Packet.t) =
  match t.fault with
  | None -> None
  | Some { loss; corrupt; seed } ->
    if loss > 0.0
    && fault_uniform ~uid:packet.Packet.uid ~seed ~salt:1 < loss then
      Some "chaos-loss"
    else if corrupt > 0.0
         && fault_uniform ~uid:packet.Packet.uid ~seed ~salt:2 < corrupt then
      Some "chaos-corrupt"
    else None

let link t = t.link

let qdisc t = t.qdisc

let ring_push t packet =
  let cap = Array.length t.ring in
  if t.r_len = cap then begin
    let bigger = Array.make (2 * cap) Packet.null in
    for i = 0 to t.r_len - 1 do
      bigger.(i) <- t.ring.((t.r_head + i) land (cap - 1))
    done;
    t.ring <- bigger;
    t.r_head <- 0
  end;
  t.ring.((t.r_head + t.r_len) land (Array.length t.ring - 1)) <- packet;
  t.r_len <- t.r_len + 1

(* The packet serializing: the ring's tail. *)
let ring_tail t =
  t.ring.((t.r_head + t.r_len - 1) land (Array.length t.ring - 1))

let ring_pop_tail t =
  let i = (t.r_head + t.r_len - 1) land (Array.length t.ring - 1) in
  let packet = t.ring.(i) in
  t.ring.(i) <- Packet.null;
  t.r_len <- t.r_len - 1;
  packet

(* A propagation event: the oldest packet on the wire arrives. It
   leaves the ring before delivery, so a re-entrant send on the same
   port sees a consistent line. *)
let propagate t =
  let packet = t.ring.(t.r_head) in
  t.ring.(t.r_head) <- Packet.null;
  t.r_head <- (t.r_head + 1) land (Array.length t.ring - 1);
  t.r_len <- t.r_len - 1;
  t.on_deliver packet

(* Serve the head-of-line packet: serialize for size*8/bandwidth
   seconds, then hand it to propagation and start on the next packet.
   The serialization event is the pre-built [tx_fire] closure; the
   packet waits at the ring's tail. *)
let rec start_service (t : t) =
  let packet = Queue_disc.dequeue_null t.qdisc in
  if packet == Packet.null then t.busy <- false
  else begin
    t.busy <- true;
    t.on_txstart packet;
    let tx =
      float_of_int packet.Packet.size *. 8.0 /. Float.Array.get t.bw 0
    in
    Float.Array.set t.acc 0 (Float.Array.get t.acc 0 +. tx);
    ring_push t packet;
    Float.Array.set t.tx_cell 0 tx;
    Engine.schedule_cell t.engine ~kind:k_tx t.tx_cell t.tx_fire
  end

and tx_complete (t : t) =
  (if t.link.Topology.up then begin
     t.delivered <- t.delivered + 1;
     t.bytes_delivered <- t.bytes_delivered + (ring_tail t).Packet.size;
     match t.handoff with
     | Some hand ->
       (* Propagation is owned elsewhere (a cut link of a partitioned
          run): hand the packet over instead of scheduling locally. *)
       hand (ring_pop_tail t)
     | None ->
       Engine.schedule_kind t.engine ~kind:k_propagate
         ~delay:t.link.Topology.delay t.prop_fire
   end
   else begin
     t.dropped_link_down <- t.dropped_link_down + 1;
     t.on_drop ~reason:"link-down" (ring_pop_tail t)
   end);
  start_service t

let create ?(on_txstart = nop_txstart) ?(on_drop = nop_drop) engine ~link
    ~qdisc ~classify ~on_deliver =
  let t =
    { engine; link; qdisc; classify; on_deliver; on_txstart; on_drop;
      busy = false; fault = None; handoff = None; offered = 0;
      delivered = 0; dropped_queue = 0; dropped_link_down = 0;
      dropped_fault = 0; bytes_delivered = 0;
      acc = Float.Array.make 1 0.0;
      bw = Float.Array.make 1 link.Topology.bandwidth;
      tx_cell = Float.Array.make 1 0.0;
      ring = Array.make 4 Packet.null; r_head = 0; r_len = 0;
      tx_fire = ignore; prop_fire = ignore }
  in
  t.tx_fire <- (fun () -> tx_complete t);
  t.prop_fire <- (fun () -> propagate t);
  t

let send (t : t) packet =
  t.offered <- t.offered + 1;
  if not t.link.Topology.up then begin
    t.dropped_link_down <- t.dropped_link_down + 1;
    t.on_drop ~reason:"link-down" packet
  end
  else begin
    match fault_verdict t packet with
    | Some reason ->
      t.dropped_fault <- t.dropped_fault + 1;
      t.on_drop ~reason packet
    | None ->
    match Queue_disc.enqueue t.qdisc ~cls:(t.classify packet) packet with
    | Error Queue_disc.Tail_drop ->
      t.dropped_queue <- t.dropped_queue + 1;
      t.on_drop ~reason:"queue-tail" packet
    | Error Queue_disc.Red_drop ->
      t.dropped_queue <- t.dropped_queue + 1;
      t.on_drop ~reason:"queue-red" packet
    | Ok () -> if not t.busy then start_service t
  end

let counters (t : t) =
  { offered = t.offered; delivered = t.delivered;
    dropped_queue = t.dropped_queue;
    dropped_link_down = t.dropped_link_down;
    dropped_fault = t.dropped_fault;
    bytes_delivered = t.bytes_delivered;
    busy_seconds = Float.Array.get t.acc 0 }

let utilization (t : t) ~now =
  if now <= 0.0 then 0.0 else Float.Array.get t.acc 0 /. now
