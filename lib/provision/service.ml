module Mpbgp = Mvpn_routing.Mpbgp
module Qos_mapping = Mvpn_core.Qos_mapping
module Prefix = Mvpn_net.Prefix

type tier = Gold | Silver | Bronze

type topology = Any_to_any | Hub_spoke | Extranet of int

type role = Hub | Spoke

type site_spec = { sid : int; pe : int; role : role }

type customer = {
  id : int;
  name : string;
  topology : topology;
  tier : tier;
  sites : site_spec list;
}

let tier_name = function
  | Gold -> "gold"
  | Silver -> "silver"
  | Bronze -> "bronze"

let topology_name = function
  | Any_to_any -> "any-to-any"
  | Hub_spoke -> "hub-spoke"
  | Extranet g -> Printf.sprintf "extranet-%d" g

let role_name = function Hub -> "hub" | Spoke -> "spoke"

let band_of_tier = function Gold -> 0 | Silver -> 1 | Bronze -> 2

let objective_of_tier tier =
  Qos_mapping.default_objective (band_of_tier tier)

let default_role topology ~sid =
  match topology with
  | Hub_spoke when sid = 0 -> Hub
  | Hub_spoke | Any_to_any | Extranet _ -> Spoke

let site_prefix ~sid =
  if sid < 0 || sid > 0xffff then
    invalid_arg (Printf.sprintf "Service.site_prefix: sid %d out of range" sid);
  Prefix.make (Mvpn_net.Ipv4.of_octets 10 (sid lsr 8) (sid land 0xff) 0) 24

let global_site_id ~customer ~sid =
  if customer < 1 || customer > 0x3fff then
    invalid_arg
      (Printf.sprintf "Service.global_site_id: customer %d out of range"
         customer);
  if sid < 0 || sid > 0xffff then
    invalid_arg
      (Printf.sprintf "Service.global_site_id: sid %d out of range" sid);
  (customer lsl 16) lor sid

(* 16 skips the reserved label range; a pure function of the global
   site id, so an incremental add and a from-scratch compile can never
   disagree on the label an egress PE allocated. *)
let vpn_label_of_site gsid = 16 + gsid

let site_name ~customer ~sid =
  "c" ^ string_of_int customer ^ "-s" ^ string_of_int sid

module Pool = struct
  (* RT value layout, all disjoint by construction: customer RTs use
     4c / 4c+1 / 4c+2 (any / hub / spoke) and extranet groups use
     4g+3 — memoization makes every allocator idempotent, and the
     tables double as the allocation ledger. *)
  type t = {
    asn : int;
    rds : (int, Mpbgp.rd) Hashtbl.t;
    rts : (int, Mpbgp.rt) Hashtbl.t;
  }

  let create ?(asn = 65000) () =
    { asn; rds = Hashtbl.create 64; rts = Hashtbl.create 64 }

  let asn t = t.asn

  let rd t ~customer =
    match Hashtbl.find_opt t.rds customer with
    | Some rd -> rd
    | None ->
      let rd = { Mpbgp.rd_asn = t.asn; rd_assigned = customer } in
      Hashtbl.replace t.rds customer rd;
      rd

  let rt_value t v =
    match Hashtbl.find_opt t.rts v with
    | Some rt -> rt
    | None ->
      let rt = { Mpbgp.rt_asn = t.asn; rt_value = v } in
      Hashtbl.replace t.rts v rt;
      rt

  let rt_any t ~customer = rt_value t (4 * customer)
  let rt_hub t ~customer = rt_value t ((4 * customer) + 1)
  let rt_spoke t ~customer = rt_value t ((4 * customer) + 2)
  let rt_extranet t ~group = rt_value t ((4 * group) + 3)

  let rds_allocated t = Hashtbl.length t.rds
  let rts_allocated t = Hashtbl.length t.rts
end

let export_rts pool ~topology ~customer ~role =
  match (topology, role) with
  | Any_to_any, _ -> [Pool.rt_any pool ~customer]
  | Hub_spoke, Hub -> [Pool.rt_hub pool ~customer]
  | Hub_spoke, Spoke -> [Pool.rt_spoke pool ~customer]
  | Extranet group, _ ->
    [Pool.rt_any pool ~customer; Pool.rt_extranet pool ~group]

let import_rts pool ~topology ~customer ~role =
  match (topology, role) with
  | Any_to_any, _ -> [Pool.rt_any pool ~customer]
  | Hub_spoke, Hub -> [Pool.rt_spoke pool ~customer]
  | Hub_spoke, Spoke -> [Pool.rt_hub pool ~customer]
  | Extranet group, _ ->
    [Pool.rt_any pool ~customer; Pool.rt_extranet pool ~group]
