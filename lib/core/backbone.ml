module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4

type t = {
  topo : Topology.t;
  pops : int array;
  loopback_octet : int;
  mutable sites_rev : Site.t list;
}

(* Express chords scale with the ring: one diameter plus two quarter
   offsets when the ring is big enough. *)
let default_chords pops =
  if pops < 5 then []
  else begin
    let candidates =
      [ (0, pops / 2);
        (pops / 4, (pops / 4) + (pops / 2));
        (pops / 6, (pops / 6) + (pops / 2)) ]
    in
    List.sort_uniq compare
      (List.filter
         (fun (a, b) ->
            a <> b && b < pops
            && abs (a - b) > 1
            && abs (a - b) < pops - 1)
         candidates)
  end

let build ?(pops = 12) ?(core_bandwidth = 45e6) ?(core_delay = 0.004)
    ?chords ?into ?(loopback_octet = 255) () =
  if loopback_octet < 0 || loopback_octet > 255 then
    invalid_arg "Backbone.build: loopback_octet outside 0-255";
  let chords =
    match chords with Some c -> c | None -> default_chords pops
  in
  let topo = match into with Some t -> t | None -> Topology.create () in
  let pop_ids =
    Topology.ring_with_chords topo pops ~chords ~bandwidth:core_bandwidth
      ~delay:core_delay
  in
  { topo; pops = pop_ids; loopback_octet; sites_rev = [] }

let topology t = t.topo

let pops t = t.pops

let pop_count t = Array.length t.pops

let check_pop t pop =
  if pop < 0 || pop >= Array.length t.pops then
    invalid_arg (Printf.sprintf "Backbone: unknown pop %d" pop)

let loopback t ~pop =
  check_pop t pop;
  Prefix.make (Ipv4.of_octets 172 31 t.loopback_octet pop) 32

let pop_of_node t node =
  let rec go i =
    if i >= Array.length t.pops then None
    else if t.pops.(i) = node then Some i
    else go (i + 1)
  in
  go 0

let attach_site ?(access_bandwidth = 2e6) t ~id ~name ~vpn ~prefix ~pop =
  check_pop t pop;
  let ce = Topology.add_node ~name:(Printf.sprintf "ce-%s" name) t.topo in
  ignore
    (Topology.connect t.topo ce t.pops.(pop) ~bandwidth:access_bandwidth
       ~delay:0.001);
  let site =
    Site.make ~id ~name ~vpn ~prefix ~ce_node:ce ~pe_node:t.pops.(pop)
  in
  t.sites_rev <- site :: t.sites_rev;
  site

let sites t = List.rev t.sites_rev
