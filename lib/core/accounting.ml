module Packet = Mvpn_net.Packet
module Telemetry = Mvpn_telemetry

type key = int * int  (* vpn, band *)

(* Each cell mirrors its running totals into registry gauges
   ([acct.vpn<N>.band<B>.{bytes,packets}]) so invoices and `mvpn
   stats` agree; the cell stays authoritative (gauge writes are gated
   on the global telemetry switch, the cell counts regardless). *)
type cell = {
  mutable packets : int;
  mutable bytes : int;
  g_packets : Telemetry.Gauge.t;
  g_bytes : Telemetry.Gauge.t;
}

type t = { table : (key, cell) Hashtbl.t }

let create () = { table = Hashtbl.create 16 }

let observe t packet =
  let vpn = Option.value ~default:0 packet.Packet.vpn in
  let band = Qos_mapping.band_of_dscp packet.Packet.inner.Packet.dscp in
  let cell =
    match Hashtbl.find_opt t.table (vpn, band) with
    | Some c -> c
    | None ->
      let g suffix =
        Telemetry.Registry.gauge
          (Printf.sprintf "acct.vpn%d.band%d.%s" vpn band suffix)
      in
      let c =
        { packets = 0; bytes = 0; g_packets = g "packets";
          g_bytes = g "bytes" }
      in
      Hashtbl.replace t.table (vpn, band) c;
      c
  in
  cell.packets <- cell.packets + 1;
  cell.bytes <- cell.bytes + packet.Packet.size;
  Telemetry.Gauge.set cell.g_packets (float_of_int cell.packets);
  Telemetry.Gauge.set cell.g_bytes (float_of_int cell.bytes)

let sink t inner packet =
  observe t packet;
  inner packet

type usage = {
  vpn : int;
  band : int;
  packets : int;
  bytes : int;
}

let usage t =
  Hashtbl.fold
    (fun (vpn, band) (c : cell) acc ->
       { vpn; band; packets = c.packets; bytes = c.bytes } :: acc)
    t.table []
  |> List.sort (fun a b ->
      match Int.compare a.vpn b.vpn with
      | 0 -> Int.compare a.band b.band
      | c -> c)

(* Price per gigabyte by band: EF, AF-hi, AF-lo, BE. *)
let per_gb = [| 8.0; 4.0; 2.0; 0.5 |]

let line_cost u =
  let rate =
    if u.band < Array.length per_gb then per_gb.(u.band)
    else per_gb.(Array.length per_gb - 1)
  in
  float_of_int u.bytes /. 1e9 *. rate

let invoice t ~vpn =
  let lines =
    List.filter_map
      (fun u -> if u.vpn = vpn then Some (u, line_cost u) else None)
      (usage t)
  in
  (lines, List.fold_left (fun acc (_, c) -> acc +. c) 0.0 lines)

let pp_invoice ppf t ~vpn =
  let lines, total = invoice t ~vpn in
  Format.fprintf ppf "VPN %d usage:@." vpn;
  List.iter
    (fun (u, cost) ->
       Format.fprintf ppf "  %-6s %10d pkts %12d bytes  %8.4f@."
         (Qos_mapping.band_name u.band) u.packets u.bytes cost)
    lines;
  Format.fprintf ppf "  total %8.4f@." total
