module Mpbgp = Mvpn_routing.Mpbgp
module Qos_mapping = Mvpn_core.Qos_mapping
module Int_tbl = Mvpn_sim.Int_tbl
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

(* "c<customer>-s<sid>", as [Printf.sprintf "c%d-s%d"] prints it, in one
   allocation. Digits are taken from the non-positive side, where
   [min_int] has a magnitude. *)
let rec digits_neg n = if n > -10 then 1 else 1 + digits_neg (n / 10)

let decimal_width n = if n < 0 then 1 + digits_neg n else digits_neg (-n)

let write_decimal b pos width n =
  if n < 0 then Bytes.set b pos '-';
  let m = ref (if n < 0 then n else -n) in
  for i = pos + width - 1 downto pos + Bool.to_int (n < 0) do
    Bytes.set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done

let site_name ~customer ~sid =
  let wc = decimal_width customer and ws = decimal_width sid in
  let b = Bytes.create (wc + ws + 3) in
  Bytes.set b 0 'c';
  write_decimal b 1 wc customer;
  Bytes.set b (wc + 1) '-';
  Bytes.set b (wc + 2) 's';
  write_decimal b (wc + 3) ws sid;
  Bytes.unsafe_to_string b

module Pool = struct
  (* RT value layout, all disjoint by construction: customer RTs use
     4c / 4c+1 / 4c+2 (any / hub / spoke) and extranet groups use
     4g+3 — memoization makes every allocator idempotent, and the
     tables double as the allocation ledger. *)
  type t = {
    asn : int;
    rds : Mpbgp.rd Int_tbl.t;
    rts : Mpbgp.rt Int_tbl.t;
  }

  let create ?(asn = 65000) () =
    { asn; rds = Int_tbl.create 64; rts = Int_tbl.create 64 }

  let rd t ~customer =
    match Int_tbl.find t.rds customer with
    | rd -> rd
    | exception Not_found ->
      let rd = { Mpbgp.rd_asn = t.asn; rd_assigned = customer } in
      Int_tbl.replace t.rds customer rd;
      rd

  let rt_value t v =
    match Int_tbl.find t.rts v with
    | rt -> rt
    | exception Not_found ->
      let rt = { Mpbgp.rt_asn = t.asn; rt_value = v } in
      Int_tbl.replace t.rts v rt;
      rt

  let rt_any t ~customer = rt_value t (4 * customer)
  let rt_hub t ~customer = rt_value t ((4 * customer) + 1)
  let rt_spoke t ~customer = rt_value t ((4 * customer) + 2)
  let rt_extranet t ~group = rt_value t ((4 * group) + 3)

  let rds_allocated t = Int_tbl.length t.rds
  let rts_allocated t = Int_tbl.length t.rts
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
