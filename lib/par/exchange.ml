module Packet = Mvpn_net.Packet

(* One channel's queued messages, oldest at index 0, as parallel
   arrays: the floats sit unboxed in [floatarray]s, so a push stores
   into preallocated slots and allocates nothing once the buffer has
   grown to the channel's high-water mark. Message [i] carries
   sequence number [next_seq - len + i]. *)
type channel = {
  mutex : Mutex.t;
  mutable c_arrival : floatarray;
  mutable c_sent : floatarray;
  mutable c_src_node : int array;
  mutable c_dst_node : int array;
  mutable c_packet : Packet.t array;
  mutable len : int;
  mutable next_seq : int;
  (* Retired records going back to the source's pool, the
     [home_len] first of [home] (see [send_home]). *)
  mutable home : Packet.t array;
  mutable home_len : int;
}

type t = {
  shards : int;
  capacity : int;
  chans : channel option array;  (* src * shards + dst *)
  overflow : int Atomic.t;
}

let create ?(capacity = 65536) ~shards () =
  if shards < 1 then invalid_arg "Exchange.create: shards < 1";
  if capacity < 1 then invalid_arg "Exchange.create: capacity < 1";
  { shards; capacity;
    chans = Array.make (shards * shards) None;
    overflow = Atomic.make 0 }

let index t ~src ~dst =
  if src < 0 || src >= t.shards || dst < 0 || dst >= t.shards || src = dst
  then invalid_arg "Exchange: bad shard pair";
  (src * t.shards) + dst

let init_cap = 16

let open_channel t ~src ~dst =
  let i = index t ~src ~dst in
  match t.chans.(i) with
  | Some _ -> ()
  | None ->
    t.chans.(i) <-
      Some
        { mutex = Mutex.create ();
          c_arrival = Float.Array.make init_cap 0.0;
          c_sent = Float.Array.make init_cap 0.0;
          c_src_node = Array.make init_cap 0;
          c_dst_node = Array.make init_cap 0;
          c_packet = Array.make init_cap Packet.null;
          len = 0; next_seq = 0; home = Array.make init_cap Packet.null;
          home_len = 0 }

let channels t =
  let acc = ref [] in
  for src = t.shards - 1 downto 0 do
    for dst = t.shards - 1 downto 0 do
      if src <> dst && t.chans.((src * t.shards) + dst) <> None then
        acc := (src, dst) :: !acc
    done
  done;
  !acc

(* A copy of the array with room for [n] entries, its first [len]
   kept. *)
let grown a ~len ~n ~fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 len;
  b

let grown_fa fa ~len ~n =
  let b = Float.Array.make n 0.0 in
  Float.Array.blit fa 0 b 0 len;
  b

let grow_channel ch =
  let len = ch.len in
  let n = 2 * Array.length ch.c_packet in
  ch.c_arrival <- grown_fa ch.c_arrival ~len ~n;
  ch.c_sent <- grown_fa ch.c_sent ~len ~n;
  ch.c_src_node <- grown ch.c_src_node ~len ~n ~fill:0;
  ch.c_dst_node <- grown ch.c_dst_node ~len ~n ~fill:0;
  ch.c_packet <- grown ch.c_packet ~len ~n ~fill:Packet.null

let send t ~src ~dst cell ~src_node ~dst_node packet =
  match t.chans.(index t ~src ~dst) with
  | None ->
    invalid_arg
      (Printf.sprintf "Exchange.send: no channel %d -> %d" src dst)
  | Some ch ->
    Mutex.lock ch.mutex;
    if ch.len = Array.length ch.c_packet then grow_channel ch;
    let i = ch.len in
    Float.Array.set ch.c_arrival i (Float.Array.get cell 0);
    Float.Array.set ch.c_sent i (Float.Array.get cell 1);
    ch.c_src_node.(i) <- src_node;
    ch.c_dst_node.(i) <- dst_node;
    ch.c_packet.(i) <- packet;
    ch.len <- i + 1;
    ch.next_seq <- ch.next_seq + 1;
    let over = ch.len > t.capacity in
    Mutex.unlock ch.mutex;
    if over then Atomic.incr t.overflow

let overflows t = Atomic.get t.overflow

let send_home t ~src ~dst n =
  match t.chans.(index t ~src ~dst) with
  | None -> 0
  | Some ch ->
    Mutex.lock ch.mutex;
    let k = ref 0 and more = ref true in
    while !more && !k < n do
      let p = Packet.reclaim () in
      if p == Packet.null then more := false
      else begin
        let len = ch.home_len in
        if len = Array.length ch.home then
          ch.home <- grown ch.home ~len ~n:(2 * len) ~fill:Packet.null;
        ch.home.(len) <- p;
        ch.home_len <- len + 1;
        incr k
      end
    done;
    Mutex.unlock ch.mutex;
    !k

let take_home t ~src =
  for dst = 0 to t.shards - 1 do
    if dst <> src then
      match t.chans.((src * t.shards) + dst) with
      (* Read without the lock: a stale 0 only leaves the records for
         the next call. *)
      | Some ch when ch.home_len > 0 ->
        Mutex.lock ch.mutex;
        for i = 0 to ch.home_len - 1 do
          Packet.adopt ch.home.(i);
          ch.home.(i) <- Packet.null
        done;
        ch.home_len <- 0;
        Mutex.unlock ch.mutex
      | Some _ | None -> ()
  done

(* The inbox: message fields in int-indexed slots, [heap.(0 .. size-1)]
   the live slots in heap order, [free.(0 .. nfree-1)] the recycled
   ones. Every array has one entry per slot. It keeps its own heap
   rather than using [Mvpn_sim.Heap]: its order, (arrival, sent, source
   shard, seq), has two float keys, and folding that into the one-key
   heap would make the heap branch on its caller. *)
type inbox = {
  mutable arrival : floatarray;
  mutable sent : floatarray;
  mutable shard : int array;
  mutable seqs : int array;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable pkts : Packet.t array;
  mutable heap : int array;
  mutable size : int;
  mutable free : int array;
  mutable nfree : int;
}

let inbox () =
  { arrival = Float.Array.make 0 0.0; sent = Float.Array.make 0 0.0;
    shard = [||]; seqs = [||]; srcs = [||]; dsts = [||]; pkts = [||];
    heap = [||]; size = 0; free = [||]; nfree = 0 }

let length ib = ib.size

(* Called only with every slot live ([nfree = 0]): the new slots all
   go on the free list. *)
let grow_inbox ib =
  let len = Array.length ib.heap in
  let n = Int.max init_cap (2 * len) in
  ib.arrival <- grown_fa ib.arrival ~len ~n;
  ib.sent <- grown_fa ib.sent ~len ~n;
  ib.shard <- grown ib.shard ~len ~n ~fill:0;
  ib.seqs <- grown ib.seqs ~len ~n ~fill:0;
  ib.srcs <- grown ib.srcs ~len ~n ~fill:0;
  ib.dsts <- grown ib.dsts ~len ~n ~fill:0;
  ib.pkts <- grown ib.pkts ~len ~n ~fill:Packet.null;
  ib.heap <- grown ib.heap ~len ~n ~fill:0;
  ib.free <- Array.init n (fun i -> n - 1 - i);
  ib.nfree <- n - len

(* Slot [a] orders before slot [b] on (arrival, sent, source shard,
   seq). The floats are compared straight out of their arrays, so
   nothing is boxed. *)
let less ib a b =
  let xa = Float.Array.unsafe_get ib.arrival a
  and xb = Float.Array.unsafe_get ib.arrival b in
  xa < xb
  || xa = xb
     && (let sa = Float.Array.unsafe_get ib.sent a
         and sb = Float.Array.unsafe_get ib.sent b in
         sa < sb
         || sa = sb
            && (let ra = ib.shard.(a) and rb = ib.shard.(b) in
                ra < rb || (ra = rb && ib.seqs.(a) < ib.seqs.(b))))

let sift_up ib slot =
  let h = ib.heap in
  let i = ref ib.size in
  while !i > 0 && less ib slot h.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    h.(!i) <- h.(p);
    i := p
  done;
  h.(!i) <- slot;
  ib.size <- ib.size + 1

(* Re-seat [slot] from the root of a heap of [size] entries. *)
let sift_down ib slot =
  let h = ib.heap and n = ib.size in
  let i = ref 0 and fin = ref false in
  while not !fin do
    let l = (2 * !i) + 1 in
    if l >= n then fin := true
    else begin
      let c = if l + 1 < n && less ib h.(l + 1) h.(l) then l + 1 else l in
      if less ib h.(c) slot then begin
        h.(!i) <- h.(c);
        i := c
      end
      else fin := true
    end
  done;
  h.(!i) <- slot

let drain_into t ~dst ib =
  for src = 0 to t.shards - 1 do
    if src <> dst then
      match t.chans.((src * t.shards) + dst) with
      | None -> ()
      | Some ch ->
        Mutex.lock ch.mutex;
        let base = ch.next_seq - ch.len in
        for i = 0 to ch.len - 1 do
          if ib.nfree = 0 then grow_inbox ib;
          ib.nfree <- ib.nfree - 1;
          let s = ib.free.(ib.nfree) in
          Float.Array.set ib.arrival s (Float.Array.get ch.c_arrival i);
          Float.Array.set ib.sent s (Float.Array.get ch.c_sent i);
          ib.shard.(s) <- src;
          ib.seqs.(s) <- base + i;
          ib.srcs.(s) <- ch.c_src_node.(i);
          ib.dsts.(s) <- ch.c_dst_node.(i);
          ib.pkts.(s) <- ch.c_packet.(i);
          ch.c_packet.(i) <- Packet.null;
          sift_up ib s
        done;
        ch.len <- 0;
        Mutex.unlock ch.mutex
  done

let ready ib ~bound ~inclusive =
  ib.size > 0
  &&
  let a = Float.Array.get ib.arrival ib.heap.(0)
  and b = Float.Array.get bound 0 in
  if inclusive then a <= b else a < b

let pop ib ~key_out =
  if ib.size = 0 then invalid_arg "Exchange.pop: empty inbox";
  let top = ib.heap.(0) in
  ib.size <- ib.size - 1;
  if ib.size > 0 then sift_down ib ib.heap.(ib.size);
  ib.free.(ib.nfree) <- top;
  ib.nfree <- ib.nfree + 1;
  Float.Array.set key_out 0 (Float.Array.get ib.arrival top);
  top

let packet ib s = ib.pkts.(s)
let src_node ib s = ib.srcs.(s)
let dst_node ib s = ib.dsts.(s)
let src_shard ib s = ib.shard.(s)
let seq ib s = ib.seqs.(s)
