module Engine = Mvpn_sim.Engine
module Rng = Mvpn_sim.Rng
module Flow = Mvpn_net.Flow
module Packet = Mvpn_net.Packet
module Sla = Mvpn_qos.Sla
module Cbq = Mvpn_qos.Cbq

(* Dispatch-ledger kind for every source-generator firing. *)
let k_src = Mvpn_sim.Profile.register_kind "traffic.src"

(* Flow-keyed table for the per-delivery collector lookup: hashing and
   comparing through [Flow]'s monomorphic functions keeps the generic
   structural hash and compare off the delivery path. *)
module Flow_tbl = Hashtbl.Make (Flow)

type registry = {
  clock : floatarray;  (* the engine's clock cell *)
  flows : Sla.collector Flow_tbl.t;
  named : (string, Sla.collector) Hashtbl.t;
  mutable label_order : string list;  (* reverse creation order *)
}

let registry engine =
  { clock = Engine.clock engine; flows = Flow_tbl.create 64;
    named = Hashtbl.create 16; label_order = [] }

let sink r packet =
  match Flow_tbl.find r.flows packet.Packet.flow with
  | c -> Sla.on_receive c ~clock:r.clock packet
  | exception Not_found -> ()

let register_flow r flow c = Flow_tbl.replace r.flows flow c

let collector r label =
  match Hashtbl.find_opt r.named label with
  | Some c -> c
  | None ->
    let c = Sla.collector () in
    Hashtbl.replace r.named label c;
    r.label_order <- label :: r.label_order;
    c

let report r label =
  match Hashtbl.find_opt r.named label with
  | Some c -> Sla.report c
  | None -> Sla.report (Sla.collector ())

let labels r = List.rev r.label_order

type emit = int -> unit

let sender r ~net ~src_node ~flow ~dscp ?vpn ?cbq ~collector:c () =
  register_flow r flow c;
  let seq = ref 0 in
  fun size ->
    incr seq;
    let packet = Packet.make_cell ?vpn ~seq:!seq ~dscp ~size r.clock flow in
    Sla.on_send c ~clock:r.clock ~bytes:size;
    match cbq with
    | None -> Network.inject net src_node packet
    | Some cbq ->
      (match Cbq.process cbq ~now:(Float.Array.get r.clock 0) packet with
       | Cbq.Marked _ -> Network.inject net src_node packet
       | Cbq.Dropped _ -> ())

(* A source that fires [first] seconds from now and then until [stop]:
   [f delay] emits and writes the delay to its next firing into slot 0
   of [delay]. One event closure and one delay cell serve every firing
   — re-arming passes the same closure back to the engine, and the
   delay reaches it unboxed. *)
let repeat_until engine ~stop f first =
  let clock = Engine.clock engine and delay = Float.Array.make 1 first in
  let rec fire () =
    if Float.Array.get clock 0 <= stop then begin
      f delay;
      Engine.schedule_cell engine ~kind:k_src delay fire
    end
  in
  Engine.schedule_cell engine ~kind:k_src delay fire

let cbr engine ~start ~stop ~rate_bps ~packet_bytes emit =
  if rate_bps <= 0.0 then invalid_arg "Traffic.cbr: rate must be positive";
  let interval = float_of_int packet_bytes *. 8.0 /. rate_bps in
  (* Index-based departure times: no floating-point drift across long
     runs, so packet counts are exactly rate × duration. The index
     advances through a mutable cell so a single closure serves the
     whole flow — no per-packet closure allocation. *)
  let i = ref 0 in
  let rec fire () =
    emit packet_bytes;
    incr i;
    let time = start +. (float_of_int !i *. interval) in
    if time <= stop then Engine.schedule_kind_at engine ~kind:k_src ~time fire
  in
  if start <= stop then Engine.schedule_kind_at engine ~kind:k_src ~time:start fire

let poisson engine rng ~start ~stop ~rate_pps ~packet_bytes emit =
  if rate_pps <= 0.0 then invalid_arg "Traffic.poisson: rate must be positive";
  let fire delay =
    emit packet_bytes;
    Rng.exponential_cell rng ~rate:rate_pps delay
  in
  repeat_until engine ~stop fire
    (Float.max 0.0 start +. Rng.exponential rng ~rate:rate_pps)

let onoff engine rng ~start ~stop ~on_mean ~off_mean ~rate_bps ~packet_bytes
    emit =
  if rate_bps <= 0.0 then invalid_arg "Traffic.onoff: rate must be positive";
  let interval = float_of_int packet_bytes *. 8.0 /. rate_bps in
  (* State machine: during a talkspurt send CBR packets; when it ends,
     sleep the silence period and start another. *)
  let clock = Engine.clock engine in
  let rec start_burst () =
    if Float.Array.get clock 0 <= stop then begin
      let burst_len = Rng.exponential rng ~rate:(1.0 /. on_mean) in
      let burst_end = Float.Array.get clock 0 +. burst_len in
      let rec tick () =
        if Float.Array.get clock 0 <= stop then begin
          emit packet_bytes;
          if Float.Array.get clock 0 +. interval <= burst_end then
            Engine.schedule_kind engine ~kind:k_src ~delay:interval tick
          else
            Engine.schedule_kind engine ~kind:k_src
              ~delay:(Rng.exponential rng ~rate:(1.0 /. off_mean))
              start_burst
        end
      in
      tick ()
    end
  in
  Engine.schedule_kind engine ~kind:k_src ~delay:(Float.max 0.0 start)
    start_burst

let pareto_bursts engine rng ~start ~stop ~burst_rate ~mean_burst_bytes
    emit =
  let mtu = 1500 and shape = 1.5 in
  if burst_rate <= 0.0 then
    invalid_arg "Traffic.pareto_bursts: rate must be positive";
  (* Pareto mean = shape*scale/(shape-1); solve scale for the requested
     mean burst size. *)
  let scale = mean_burst_bytes *. (shape -. 1.0) /. shape in
  let fire delay =
    (* The burst size passes through the delay cell, which the next
       draw then overwrites. *)
    Rng.pareto_cell rng ~shape ~scale delay;
    let remaining = ref (int_of_float (Float.Array.get delay 0)) in
    while !remaining > 0 do
      emit (min !remaining mtu);
      remaining := !remaining - mtu
    done;
    Rng.exponential_cell rng ~rate:burst_rate delay
  in
  repeat_until engine ~stop fire
    (Float.max 0.0 start +. Rng.exponential rng ~rate:burst_rate)
