module Radix = Mvpn_net.Radix
module Mpbgp = Mvpn_routing.Mpbgp

type next_hop =
  | Local_site of Site.t
  | Remote_pe of { pe : int; vpn_label : int }
  | Via_neighbor of int

type t = {
  pe : int;
  rd : Mpbgp.rd;
  import_rts : Mpbgp.rt list;
  export_rts : Mpbgp.rt list;
  routes : next_hop Radix.t;
  (* Direct-mapped dst → LPM-result cache in front of the radix walk,
     same idiom as the dataplane's FIB cache: a slot holds the address
     it answers for and the trie's own [option] box. The whole cache is
     flushed (lazily, via the stored generation) whenever the trie
     mutates, so a hit can never serve a route the trie no longer
     holds. *)
  ck : int array;  (* Ipv4.to_int keys; -1 = empty *)
  cv : next_hop option array;
  mutable cgen : int;
}

let cache_slots = 256

let slot_of addr = (addr * 0x9E3779B1) lsr 16 land (cache_slots - 1)

let m_cache_hit = Mvpn_telemetry.Registry.counter "vrf.cache.hit"
let m_cache_miss = Mvpn_telemetry.Registry.counter "vrf.cache.miss"

let create ~pe ~rd ~import_rts ~export_rts =
  { pe; rd; import_rts; export_rts; routes = Radix.create ();
    ck = Array.make cache_slots (-1); cv = Array.make cache_slots None;
    (* -1 never equals a real generation, so the first lookup flushes. *)
    cgen = -1 }

let pe t = t.pe
let rd t = t.rd
let import_rts t = t.import_rts
let export_rts t = t.export_rts

let add_local t site = Radix.add t.routes site.Site.prefix (Local_site site)

let install_remote t ~prefix ~pe ~vpn_label =
  Radix.add t.routes prefix (Remote_pe { pe; vpn_label })

let install_via t ~prefix ~neighbor =
  Radix.add t.routes prefix (Via_neighbor neighbor)

let remove t prefix = Radix.remove t.routes prefix

let lookup t addr =
  let g = Radix.generation t.routes in
  if g <> t.cgen then begin
    Array.fill t.ck 0 cache_slots (-1);
    t.cgen <- g
  end;
  let k = Mvpn_net.Ipv4.to_int addr in
  let s = slot_of k in
  if t.ck.(s) = k then begin
    Mvpn_telemetry.Counter.incr m_cache_hit;
    t.cv.(s)
  end
  else begin
    Mvpn_telemetry.Counter.incr m_cache_miss;
    let r = Radix.lookup_value t.routes addr in
    t.ck.(s) <- k;
    t.cv.(s) <- r;
    r
  end

let iter_routes t f = Radix.iter f t.routes

let clear_remote t =
  let victims =
    Radix.fold
      (fun p nh acc ->
         match nh with
         | Remote_pe _ -> p :: acc
         | Local_site _ | Via_neighbor _ -> acc)
      t.routes []
  in
  List.iter (fun p -> ignore (Radix.remove t.routes p)) victims;
  List.length victims
