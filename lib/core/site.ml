module Prefix = Mvpn_net.Prefix

type t = {
  id : int;
  name : string;
  vpn : int;
  prefix : Prefix.t;
  ce_node : int;
  pe_node : int;
}

let make ~id ~name ~vpn ~prefix ~ce_node ~pe_node =
  { id; name; vpn; prefix; ce_node; pe_node }

let host t i = Prefix.nth_host t.prefix (i + 1)
