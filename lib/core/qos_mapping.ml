module Dscp = Mvpn_net.Dscp
module Packet = Mvpn_net.Packet
module Queue_disc = Mvpn_qos.Queue_disc

type policy =
  | Best_effort
  | Diffserv of Queue_disc.sched

let band_count = 4

let band_of_exp = function
  | 5 | 6 | 7 -> 0  (* EF and network control *)
  | 3 | 4 -> 1  (* AF3 / AF4 *)
  | 1 | 2 -> 2  (* AF1 / AF2 *)
  | _ -> 3  (* best effort *)

let band_of_dscp d = band_of_exp (Dscp.to_exp d)

let band_of_packet p =
  let top = Packet.top_packed p in
  if top >= 0 then band_of_exp (Packet.Shim.exp top)
  else band_of_dscp (Packet.visible_dscp p)

let band_name = function
  | 0 -> "EF"
  | 1 -> "AF-hi"
  | 2 -> "AF-lo"
  | _ -> "BE"

let default_diffserv_sched = Queue_disc.Wfq [| 8.0; 4.0; 2.0; 1.0 |]

let strict_sched = Queue_disc.Strict

(* Buffer per egress port, split across bands under DiffServ. *)
let buffer_bytes = 262_144

let make_qdisc ?rng ?(wred = true) policy =
  match policy with
  | Best_effort -> Queue_disc.fifo ~capacity_bytes:buffer_bytes
  | Diffserv sched ->
    (* EF gets a short queue (delay bound beats buffering); AF classes
       get the bulk of the buffer with WRED; BE gets a plain tail-drop
       share. *)
    let ef_cap = buffer_bytes / 8 in
    let af_cap = buffer_bytes * 5 / 16 in
    let be_cap = buffer_bytes / 4 in
    let af_band cap =
      { Queue_disc.capacity_bytes = cap;
        red =
          (if wred then
             Some (Queue_disc.default_wred ~avg_capacity:(float_of_int cap))
           else None) }
    in
    Queue_disc.create ?rng ~sched
      [| Queue_disc.plain_band ef_cap;
         af_band af_cap;
         af_band af_cap;
         Queue_disc.plain_band be_cap |]

(* Default per-band SLOs, derived from the SLA templates in
   {!Mvpn_qos.Sla}: EF inherits the voice spec's p99/loss bounds, the
   AF bands the transactional spec's (AF-lo relaxed), BE promises only
   that it is not a permanent blackout. *)
let default_objective band =
  let open Mvpn_telemetry.Slo in
  match band with
  | 0 -> spec ~latency_p99:0.200 ~loss_ratio:0.01 ~availability:0.99 0.99
  | 1 -> spec ~latency_p99:0.500 ~loss_ratio:0.05 ~availability:0.95 0.98
  | 2 -> spec ~latency_p99:1.0 ~loss_ratio:0.10 ~availability:0.90 0.95
  | _ -> spec ~loss_ratio:0.50 ~availability:0.50 0.50

let classify policy p =
  match policy with
  | Best_effort -> 0
  | Diffserv _ -> band_of_packet p

let mark_exp_from_dscp p =
  Packet.set_exp_all p ~exp:(Dscp.to_exp p.Packet.inner.Packet.dscp)
