module Stats = Mvpn_sim.Stats
module Packet = Mvpn_net.Packet

(* Per-flow table hashed and compared by [Flow]'s own functions, so a
   delivery's sequence lookup stays in OCaml code (no [caml_hash] or
   polymorphic compare on the 5-tuple record). *)
module Flow_tbl = Hashtbl.Make (Mvpn_net.Flow)

type spec = {
  name : string;
  max_mean_delay : float option;
  max_p99_delay : float option;
  max_jitter : float option;
  max_loss : float option;
  min_throughput_bps : float option;
}

let best_effort_spec =
  { name = "best-effort"; max_mean_delay = None; max_p99_delay = None;
    max_jitter = None; max_loss = None; min_throughput_bps = None }

let voice_spec =
  { name = "voice"; max_mean_delay = Some 0.150; max_p99_delay = Some 0.200;
    max_jitter = Some 0.030; max_loss = Some 0.01;
    min_throughput_bps = None }

let transactional_spec =
  { name = "transactional"; max_mean_delay = Some 0.300;
    max_p99_delay = Some 0.500; max_jitter = None; max_loss = Some 0.05;
    min_throughput_bps = None }

let s_first = 0
and s_last = 1

type collector = {
  delays : Stats.Samples.t;
  jitter_acc : Stats.Summary.t;
  last_seq : int ref Flow_tbl.t;
  mutable reordered : int;
  mutable sent : int;
  mutable received : int;
  mutable bytes_received : int;
  (* [span] holds the first send time ([s_first]) and the last receive
     time ([s_last]): as float fields of this mixed record, every
     receive would store a fresh box. *)
  span : floatarray;
  (* Previous delay for the jitter accumulator, in a floatarray cell
     (nan = no packet yet) so the per-packet update is an unboxed
     store, not a [Some] box. *)
  last_delay : floatarray;
  (* One-slot cell that carries each sample into [Stats] unboxed
     (the float boxing rule, ARCHITECTURE). *)
  arg : floatarray;
}

let collector () =
  { delays = Stats.Samples.create (); jitter_acc = Stats.Summary.create ();
    last_seq = Flow_tbl.create 8; reordered = 0;
    sent = 0; received = 0; bytes_received = 0;
    span = Float.Array.of_list [ infinity; neg_infinity ];
    last_delay = Float.Array.make 1 Float.nan;
    arg = Float.Array.make 1 0.0 }

(* The time arrives in a clock cell (slot 0, the simulation engine's
   clock), so the per-packet calls never box it. *)
let on_send c ~clock ~bytes =
  ignore bytes;
  let now = Float.Array.get clock 0 in
  c.sent <- c.sent + 1;
  if now < Float.Array.get c.span s_first then
    Float.Array.set c.span s_first now

let on_receive c ~clock packet =
  let now = Float.Array.get clock 0 in
  let delay = now -. Float.Array.get packet.Packet.created 0 in
  (* Per-flow sequence tracking: an arrival below the high-water mark
     was overtaken in flight. Exception-style lookup keeps the [Some]
     box out of the per-delivery path. *)
  (match Flow_tbl.find c.last_seq packet.Packet.flow with
   | high ->
     if packet.Packet.seq < !high then c.reordered <- c.reordered + 1
     else high := packet.Packet.seq
   | exception Not_found ->
     Flow_tbl.add c.last_seq packet.Packet.flow (ref packet.Packet.seq));
  c.received <- c.received + 1;
  c.bytes_received <- c.bytes_received + packet.Packet.size;
  if now > Float.Array.get c.span s_last then
    Float.Array.set c.span s_last now;
  Float.Array.set c.arg 0 delay;
  Stats.Samples.add_cell c.delays c.arg;
  let prev = Float.Array.get c.last_delay 0 in
  if not (Float.is_nan prev) then begin
    Float.Array.set c.arg 0 (Float.abs (delay -. prev));
    Stats.Summary.add_cell c.jitter_acc c.arg
  end;
  Float.Array.set c.last_delay 0 delay

type report = {
  sent : int;
  received : int;
  reordered : int;
  bytes_received : int;
  duration : float;
  mean_delay : float;
  p99_delay : float;
  max_delay : float;
  jitter : float;
  loss : float;
  throughput_bps : float;
}

let report (c : collector) =
  let duration =
    if c.received = 0 || c.sent = 0 then 0.0
    else
      Float.max 0.0
        (Float.Array.get c.span s_last -. Float.Array.get c.span s_first)
  in
  { sent = c.sent;
    received = c.received;
    reordered = c.reordered;
    bytes_received = c.bytes_received;
    duration;
    mean_delay = Stats.Samples.mean c.delays;
    p99_delay = Stats.Samples.percentile c.delays 0.99;
    max_delay =
      (if Stats.Samples.count c.delays = 0 then 0.0
       else Stats.Samples.percentile c.delays 1.0);
    jitter = Stats.Summary.mean c.jitter_acc;
    loss =
      (if c.sent = 0 then 0.0
       else 1.0 -. (float_of_int c.received /. float_of_int c.sent));
    throughput_bps =
      (if duration <= 0.0 then 0.0
       else float_of_int c.bytes_received *. 8.0 /. duration) }

let delay_samples c = Stats.Samples.to_array c.delays

let pp_report ppf r =
  Format.fprintf ppf
    "sent=%d recv=%d loss=%.4f mean=%.4gms p99=%.4gms jitter=%.4gms tput=%.4gMbps"
    r.sent r.received r.loss (r.mean_delay *. 1e3) (r.p99_delay *. 1e3)
    (r.jitter *. 1e3)
    (r.throughput_bps /. 1e6)

let check spec r =
  let violations = ref [] in
  let violated fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (match spec.max_mean_delay with
   | Some limit when r.mean_delay > limit ->
     violated "mean delay %.1fms exceeds %.1fms" (r.mean_delay *. 1e3)
       (limit *. 1e3)
   | Some _ | None -> ());
  (match spec.max_p99_delay with
   | Some limit when r.p99_delay > limit ->
     violated "p99 delay %.1fms exceeds %.1fms" (r.p99_delay *. 1e3)
       (limit *. 1e3)
   | Some _ | None -> ());
  (match spec.max_jitter with
   | Some limit when r.jitter > limit ->
     violated "jitter %.1fms exceeds %.1fms" (r.jitter *. 1e3) (limit *. 1e3)
   | Some _ | None -> ());
  (match spec.max_loss with
   | Some limit when r.loss > limit ->
     violated "loss %.2f%% exceeds %.2f%%" (r.loss *. 100.0) (limit *. 100.0)
   | Some _ | None -> ());
  (match spec.min_throughput_bps with
   | Some limit when r.throughput_bps < limit ->
     violated "throughput %.3gbps below %.3gbps" r.throughput_bps limit
   | Some _ | None -> ());
  List.rev !violations

let complies spec r = check spec r = []
