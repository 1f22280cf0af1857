module Packet = Mvpn_net.Packet
module Dscp = Mvpn_net.Dscp
module Rng = Mvpn_sim.Rng
module Telemetry = Mvpn_telemetry

(* Global per-band counters, aggregated across every qdisc instance
   (bands beyond the last tracked index share its counters). *)
let max_tracked_bands = 8

let band_counters stem =
  Array.init max_tracked_bands (fun i ->
      Telemetry.Registry.counter (Printf.sprintf "qdisc.band%d.%s" i stem))

let m_enqueued = band_counters "enqueued"
let m_dequeued = band_counters "dequeued"
let m_tail_drop = band_counters "tail_drop"
let m_red_drop = band_counters "red_drop"

let tracked i = Int.min i (max_tracked_bands - 1)

type sched =
  | Strict
  | Wrr of int array
  | Drr of int array
  | Wfq of float array

type red_params = {
  ewma_weight : float;
  thresholds : (float * float * float) array;
}

let default_wred ~avg_capacity =
  { ewma_weight = 0.1;
    thresholds =
      [| (0.5 *. avg_capacity, 0.9 *. avg_capacity, 0.05);
         (0.3 *. avg_capacity, 0.7 *. avg_capacity, 0.2);
         (0.2 *. avg_capacity, 0.5 *. avg_capacity, 0.5) |] }

type band_cfg = { capacity_bytes : int; red : red_params option }

let plain_band capacity_bytes = { capacity_bytes; red = None }

type drop_reason = Tail_drop | Red_drop

type band_stats = {
  enqueued : int;
  dequeued : int;
  tail_dropped : int;
  red_dropped : int;
  bytes_sent : int;
}

type band = {
  cfg : band_cfg;
  idx : int;  (* position in the qdisc, for per-band telemetry *)
  (* The band's FIFO: a ring of packets with their WFQ finish tags in
     a parallel floatarray (tags never box), oldest at [q_head],
     capacity a power of two. Slots are int-indexed, so the only
     pointer stores per packet are its store and clear; a vacated slot
     holds [Packet.null]. *)
  mutable pkts : Packet.t array;
  mutable tags : floatarray;
  mutable q_head : int;
  mutable q_len : int;
  mutable bytes : int;
  (* RED EWMA of backlog bytes ([0]) and the WFQ last-finish tag ([1])
     in unboxed cells: both are written once per enqueue, and a boxed
     mutable-float store costs an allocation plus a write barrier. *)
  bf : floatarray;
  mutable red_count : int;  (* packets since the last RED drop *)
  mutable deficit : int;  (* DRR *)
  mutable s_enqueued : int;
  mutable s_dequeued : int;
  mutable s_tail_dropped : int;
  mutable s_red_dropped : int;
  mutable s_bytes_sent : int;
}

type t = {
  sched : sched;
  bands : band array;
  rng : Rng.t;
  (* The WFQ weight array ([||] otherwise): the per-packet finish-tag
     computation indexes it directly instead of re-matching the
     scheduler constructor. *)
  wts : float array;
  vt : floatarray;  (* WFQ virtual time, unboxed (slot 0) *)
  mutable rr_pos : int;  (* WRR / DRR cursor *)
  mutable wrr_credit : int;  (* packets left for the current WRR band *)
}

let check_weights name n arr pos =
  if Array.length arr <> n then
    invalid_arg
      (Printf.sprintf "Queue_disc.create: %s needs %d weights" name n);
  Array.iter
    (fun w ->
       if w <= pos then
         invalid_arg
           (Printf.sprintf "Queue_disc.create: %s weights must be positive"
              name))
    arr

let create ?rng ~sched cfgs =
  let n = Array.length cfgs in
  if n = 0 then invalid_arg "Queue_disc.create: need at least one band";
  (match sched with
   | Strict -> ()
   | Wrr w -> check_weights "wrr" n w 0
   | Drr q -> check_weights "drr" n q 0
   | Wfq w ->
     if Array.length w <> n then
       invalid_arg (Printf.sprintf "Queue_disc.create: wfq needs %d weights" n);
     Array.iter
       (fun x ->
          if x <= 0.0 then
            invalid_arg "Queue_disc.create: wfq weights must be positive")
       w);
  Array.iter
    (fun c ->
       if c.capacity_bytes <= 0 then
         invalid_arg "Queue_disc.create: band capacity must be positive")
    cfgs;
  { sched;
    bands =
      Array.mapi
        (fun idx cfg ->
           { cfg; idx; pkts = Array.make 8 Packet.null;
             tags = Float.Array.make 8 0.0; q_head = 0; q_len = 0;
             bytes = 0; bf = Float.Array.make 2 0.0;
             red_count = 0; deficit = 0; s_enqueued = 0;
             s_dequeued = 0; s_tail_dropped = 0; s_red_dropped = 0;
             s_bytes_sent = 0 })
        cfgs;
    rng = (match rng with Some r -> r | None -> Rng.create 0x52ED);
    wts =
      (match sched with
       | Wfq w -> w
       | Strict | Wrr _ | Drr _ -> [||]);
    vt = Float.Array.make 1 0.0; rr_pos = 0; wrr_credit = 0 }

let fifo ~capacity_bytes =
  create ~sched:Strict [| plain_band capacity_bytes |]

let band_count t = Array.length t.bands

(* RED drop test for one arriving packet. *)
let red_drops t band (p : Packet.t) =
  match band.cfg.red with
  | None -> false
  | Some red ->
    let avg =
      ((1.0 -. red.ewma_weight) *. Float.Array.get band.bf 0)
      +. (red.ewma_weight *. float_of_int band.bytes)
    in
    Float.Array.set band.bf 0 avg;
    let prec = Dscp.drop_precedence (Packet.visible_dscp p) in
    let idx =
      Int.min (Int.max (prec - 1) 0) (Array.length red.thresholds - 1)
    in
    let min_th, max_th, max_p = red.thresholds.(idx) in
    if avg < min_th then begin
      band.red_count <- 0;
      false
    end
    else if avg >= max_th then begin
      band.red_count <- 0;
      true
    end
    else begin
      let pb = max_p *. ((avg -. min_th) /. (max_th -. min_th)) in
      (* Count-based spacing (RFC 2309 style): probability grows with
         packets accepted since the last drop. *)
      let pa =
        let denom = 1.0 -. (float_of_int band.red_count *. pb) in
        if denom <= 0.0 then 1.0 else pb /. denom
      in
      if Rng.bool t.rng pa then begin
        band.red_count <- 0;
        true
      end else begin
        band.red_count <- band.red_count + 1;
        false
      end
    end

(* Double a full band ring, unwrapping it to start at slot 0. *)
let grow band =
  let cap = Array.length band.pkts in
  let pkts = Array.make (2 * cap) Packet.null in
  let tags = Float.Array.make (2 * cap) 0.0 in
  for i = 0 to cap - 1 do
    let j = (band.q_head + i) land (cap - 1) in
    pkts.(i) <- band.pkts.(j);
    Float.Array.set tags i (Float.Array.get band.tags j)
  done;
  band.pkts <- pkts;
  band.tags <- tags;
  band.q_head <- 0

let enqueue t ~cls packet =
  let cls = Int.min (Int.max cls 0) (Array.length t.bands - 1) in
  let band = t.bands.(cls) in
  if red_drops t band packet then begin
    band.s_red_dropped <- band.s_red_dropped + 1;
    Telemetry.Counter.incr m_red_drop.(tracked cls);
    Error Red_drop
  end
  else if band.bytes + packet.Packet.size > band.cfg.capacity_bytes then begin
    band.s_tail_dropped <- band.s_tail_dropped + 1;
    Telemetry.Counter.incr m_tail_drop.(tracked cls);
    Error Tail_drop
  end
  else begin
    if band.q_len = Array.length band.pkts then grow band;
    let i = (band.q_head + band.q_len) land (Array.length band.pkts - 1) in
    (* The WFQ finish tag goes straight into the packet's ring slot. *)
    (match t.sched with
     | Wfq _ ->
       let lf = Float.Array.get band.bf 1 in
       let vtime = Float.Array.get t.vt 0 in
       let start = if vtime > lf then vtime else lf in
       let finish =
         start +. (float_of_int packet.Packet.size /. t.wts.(cls))
       in
       Float.Array.set band.bf 1 finish;
       Float.Array.set band.tags i finish
     | Strict | Wrr _ | Drr _ -> ());
    band.pkts.(i) <- packet;
    band.q_len <- band.q_len + 1;
    band.bytes <- band.bytes + packet.Packet.size;
    band.s_enqueued <- band.s_enqueued + 1;
    Telemetry.Counter.incr m_enqueued.(tracked cls);
    Ok ()
  end

let[@inline] head_tag band = Float.Array.get band.tags band.q_head

let take_from band =
  let packet = band.pkts.(band.q_head) in
  band.pkts.(band.q_head) <- Packet.null;
  band.q_head <- (band.q_head + 1) land (Array.length band.pkts - 1);
  band.q_len <- band.q_len - 1;
  band.bytes <- band.bytes - packet.Packet.size;
  band.s_dequeued <- band.s_dequeued + 1;
  band.s_bytes_sent <- band.s_bytes_sent + packet.Packet.size;
  Telemetry.Counter.incr m_dequeued.(tracked band.idx);
  packet

let is_empty t = Array.for_all (fun b -> b.q_len = 0) t.bands

(* A loop, not a local recursive closure: the closure (over [t] and
   the band count) would be allocated on every dequeue. *)
let dequeue_strict t =
  let n = Array.length t.bands in
  let i = ref 0 in
  while !i < n && t.bands.(!i).q_len = 0 do incr i done;
  if !i >= n then Packet.null else take_from t.bands.(!i)

let dequeue_wrr t weights =
  if is_empty t then Packet.null
  else begin
    let n = Array.length t.bands in
    (* Spend remaining credit on the current band, else rotate. *)
    let rec go guard =
      if guard > 2 * n then Packet.null
      else begin
        let band = t.bands.(t.rr_pos) in
        if t.wrr_credit > 0 && band.q_len > 0 then begin
          t.wrr_credit <- t.wrr_credit - 1;
          take_from band
        end else begin
          t.rr_pos <- (t.rr_pos + 1) mod n;
          t.wrr_credit <- weights.(t.rr_pos);
          go (guard + 1)
        end
      end
    in
    go 0
  end

let dequeue_drr t quanta =
  if is_empty t then Packet.null
  else begin
    let n = Array.length t.bands in
    let rec go () =
      let band = t.bands.(t.rr_pos) in
      if band.q_len = 0 then begin
        band.deficit <- 0;
        t.rr_pos <- (t.rr_pos + 1) mod n;
        go ()
      end else begin
        let head = band.pkts.(band.q_head) in
        if band.deficit >= head.Packet.size then begin
          band.deficit <- band.deficit - head.Packet.size;
          take_from band
        end else begin
          band.deficit <- band.deficit + quanta.(t.rr_pos);
          t.rr_pos <- (t.rr_pos + 1) mod n;
          go ()
        end
      end
    in
    go ()
  end

(* Lowest finish tag wins; on ties the lowest band index (the scan
   visits bands in order and replaces only on a strictly smaller
   tag — the same tie-break the option-based scan implemented). *)
let dequeue_wfq t =
  let n = Array.length t.bands in
  let best = ref (-1) in
  for i = 0 to n - 1 do
    let band = t.bands.(i) in
    if band.q_len > 0
    && (!best < 0 || head_tag band < head_tag t.bands.(!best))
    then best := i
  done;
  if !best < 0 then Packet.null
  else begin
    let band = t.bands.(!best) in
    let tag = head_tag band in
    if tag > Float.Array.get t.vt 0 then Float.Array.set t.vt 0 tag;
    take_from band
  end

(* Sentinel-returning fast path ({!Packet.null} when every band is
   empty): the port's service loop runs once per transmitted packet
   and skips the [option] box. *)
let dequeue_null t =
  match t.sched with
  | Strict -> dequeue_strict t
  | Wrr w -> dequeue_wrr t w
  | Drr q -> dequeue_drr t q
  | Wfq _ -> dequeue_wfq t

let dequeue t =
  let p = dequeue_null t in
  if p == Packet.null then None else Some p

let backlog_bytes t = Array.fold_left (fun acc b -> acc + b.bytes) 0 t.bands

let backlog_packets t =
  Array.fold_left (fun acc b -> acc + b.q_len) 0 t.bands

type counter = Enqueued | Dequeued | Tail_dropped | Red_dropped

let band_counter t ~band c =
  let b = t.bands.(band) in
  match c with
  | Enqueued -> b.s_enqueued
  | Dequeued -> b.s_dequeued
  | Tail_dropped -> b.s_tail_dropped
  | Red_dropped -> b.s_red_dropped

let stats t =
  Array.map
    (fun b ->
       { enqueued = b.s_enqueued; dequeued = b.s_dequeued;
         tail_dropped = b.s_tail_dropped; red_dropped = b.s_red_dropped;
         bytes_sent = b.s_bytes_sent })
    t.bands
