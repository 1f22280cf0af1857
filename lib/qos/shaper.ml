module Engine = Mvpn_sim.Engine
module Packet = Mvpn_net.Packet

type t = {
  engine : Engine.t;
  bucket : Token_bucket.t;
  rate_bytes_per_s : float;
  queue_bytes : int;
  release : Packet.t -> unit;
  queue : Packet.t Queue.t;
  mutable backlog : int;
  mutable draining : bool;
  mutable shaped : int;
  mutable dropped : int;
}

let create engine ~rate_bps ~burst_bytes ~queue_bytes ~release =
  if queue_bytes <= 0 then
    invalid_arg "Shaper.create: queue must be positive";
  { engine;
    bucket = Token_bucket.create ~rate_bps ~burst_bytes;
    rate_bytes_per_s = rate_bps /. 8.0;
    queue_bytes; release; queue = Queue.create (); backlog = 0;
    draining = false; shaped = 0; dropped = 0 }

(* Serve the head of the queue as soon as its tokens accrue. *)
let rec drain t =
  match Queue.peek_opt t.queue with
  | None -> t.draining <- false
  | Some head ->
    let now = Engine.now t.engine in
    if Token_bucket.take t.bucket ~now ~bytes:head.Packet.size then begin
      ignore (Queue.pop t.queue);
      t.backlog <- t.backlog - head.Packet.size;
      t.release head;
      drain t
    end
    else begin
      t.draining <- true;
      let deficit =
        float_of_int head.Packet.size -. Token_bucket.available t.bucket ~now
      in
      let wait = Float.max 1e-6 (deficit /. t.rate_bytes_per_s) in
      Engine.schedule t.engine ~delay:wait (fun () -> drain t)
    end

let offer t packet =
  let now = Engine.now t.engine in
  if Queue.is_empty t.queue
  && Token_bucket.take t.bucket ~now ~bytes:packet.Packet.size
  then begin
    t.release packet;
    true
  end
  else if t.backlog + packet.Packet.size > t.queue_bytes then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    Queue.add packet t.queue;
    t.backlog <- t.backlog + packet.Packet.size;
    t.shaped <- t.shaped + 1;
    if not t.draining then drain t;
    true
  end

let shaped t = t.shaped

let dropped t = t.dropped
