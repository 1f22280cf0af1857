module Packet = Mvpn_net.Packet
module Fib = Mvpn_net.Fib
module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4
module Plane = Mvpn_mpls.Plane
module Lfib = Mvpn_mpls.Lfib
module Telemetry = Mvpn_telemetry

let m_fib_hit = Telemetry.Registry.counter "fib.cache.hit"
let m_fib_miss = Telemetry.Registry.counter "fib.cache.miss"
let m_recompile = Telemetry.Registry.counter "dataplane.recompile"

type verdict = Consumed | Continue

type interceptor = from:int option -> Packet.t -> verdict

type hooks = {
  transmit : from:int -> to_:int -> Packet.t -> unit;
  deliver : node:int -> Packet.t -> unit;
  drop : node:int -> Packet.t -> string -> unit;
  notify_receive : node:int -> from:int option -> Packet.t -> unit;
}

let no_hooks =
  { transmit = (fun ~from:_ ~to_:_ _ -> ());
    deliver = (fun ~node:_ _ -> ());
    drop = (fun ~node:_ _ _ -> ());
    notify_receive = (fun ~node:_ ~from:_ _ -> ()) }

(* Direct-mapped dst → LPM-result cache. Slot count is a power of two;
   a slot holds the address it answers for and the (possibly negative)
   lookup result. 512 slots cover the working sets of the workloads
   here; collisions just re-walk the trie. *)
let cache_slots = 512

let slot_of addr = (addr * 0x9E3779B1) lsr 16 land (cache_slots - 1)

let no_key = -1

type compiled = {
  c_fib_gen : int;
  c_icept_gen : int;
  dispatch : from:int option -> Packet.t -> bool;  (* true = consumed *)
  fib_keys : int array;  (* Ipv4.to_int of the cached dst; no_key = empty *)
  fib_vals : (Prefix.t * Fib.route) option array;
}

type t = {
  plane : Plane.t;
  fibs : Fib.t array;
  mutable hooks : hooks;
  cache : bool;
  interceptors : interceptor list array;
  icept_gens : int array;
  compiled : compiled option array;
  mutable recompiles : int;
}

let create ?(cache = true) ~nodes ~plane ~fibs () =
  { plane; fibs; hooks = no_hooks; cache;
    interceptors = Array.make nodes [];
    icept_gens = Array.make nodes 0;
    compiled = Array.make nodes None;
    recompiles = 0 }

let set_hooks t hooks = t.hooks <- hooks

let add_interceptor t node f =
  t.interceptors.(node) <- f :: t.interceptors.(node);
  t.icept_gens.(node) <- t.icept_gens.(node) + 1

let recompiles t = t.recompiles

(* Fold the chain into one dispatcher. Interceptors run in list order
   (prepend order) and the first [Consumed] wins — the same contract
   the per-packet [List.exists] used to implement. *)
let compile_dispatch = function
  | [] -> fun ~from:_ _ -> false
  | [f] -> fun ~from p -> f ~from p = Consumed
  | chain ->
    let arr = Array.of_list chain in
    let n = Array.length arr in
    fun ~from p ->
      let rec go i = i < n && (arr.(i) ~from p = Consumed || go (i + 1)) in
      go 0

let compile t node =
  t.recompiles <- t.recompiles + 1;
  Telemetry.Counter.incr m_recompile;
  if !Telemetry.Control.enabled then
    Telemetry.Event_log.record
      (Telemetry.Registry.events ())
      (Telemetry.Event_log.Recompile { node });
  let c =
    { c_fib_gen = Fib.generation t.fibs.(node);
      c_icept_gen = t.icept_gens.(node);
      dispatch = compile_dispatch t.interceptors.(node);
      fib_keys = (if t.cache then Array.make cache_slots no_key else [||]);
      fib_vals = (if t.cache then Array.make cache_slots None else [||]) }
  in
  t.compiled.(node) <- Some c;
  c

(* The per-packet staleness check: one int comparison per input the
   compiled state is built from — the FIB (route cache) and the
   interceptor chain (dispatcher). Any mismatch throws the node's
   compiled state away, so the cache never serves an entry older than
   the FIB. LFIB and FTN changes need no check: every packet reads
   those tables live. *)
let state t node =
  match t.compiled.(node) with
  | Some c
    when c.c_fib_gen = Fib.generation t.fibs.(node)
      && c.c_icept_gen = t.icept_gens.(node) -> c
  | Some _ | None -> compile t node

let fib_lookup t c node dst =
  if not t.cache then Fib.lookup t.fibs.(node) dst
  else begin
    let key = Ipv4.to_int dst in
    let slot = slot_of key in
    if c.fib_keys.(slot) = key then begin
      Telemetry.Counter.incr m_fib_hit;
      c.fib_vals.(slot)
    end else begin
      Telemetry.Counter.incr m_fib_miss;
      let r = Fib.lookup t.fibs.(node) dst in
      c.fib_keys.(slot) <- key;
      c.fib_vals.(slot) <- r;
      r
    end
  end

(* Plain IP forwarding at [node]: cached FIB lookup on the visible
   destination, then local delivery or relay.
   [forward_ip_c] takes the node's already-validated compiled state so
   {!receive} pays the generation check once per packet, not twice;
   the interceptor contract makes that safe — an interceptor that
   declines ([Continue]) must not retarget the node's tables. *)
let forward_ip_c t c node packet =
  let hdr = Packet.visible_header packet in
  match fib_lookup t c node hdr.Packet.dst with
  | None -> t.hooks.drop ~node packet "no-route"
  | Some (_, route) when route.Fib.next_hop = Fib.local_delivery ->
    t.hooks.deliver ~node packet
  | Some (_, route) ->
    if hdr.Packet.ttl <= 1 then t.hooks.drop ~node packet "ip-ttl"
    else begin
      hdr.Packet.ttl <- hdr.Packet.ttl - 1;
      t.hooks.transmit ~from:node ~to_:route.Fib.next_hop packet
    end

let forward_ip t node packet = forward_ip_c t (state t node) node packet

let receive t node ~from packet =
  t.hooks.notify_receive ~node ~from packet;
  let c = state t node in
  if not (c.dispatch ~from packet) then begin
    if Packet.labelled packet then begin
      (* Packed step verdict: an immediate int, no constructor block
         per label hop (see {!Lfib.step_packed}). *)
      let r = Lfib.step_packed (Plane.lfib t.plane node) packet in
      let tag = Lfib.packed_tag r in
      if tag = Lfib.tag_forward then
        t.hooks.transmit ~from:node ~to_:(Lfib.packed_arg r) packet
      else if tag = Lfib.tag_ip_continue then begin
        let nh = Lfib.packed_arg r in
        if nh = Lfib.local then forward_ip_c t c node packet
        else t.hooks.transmit ~from:node ~to_:nh packet
      end
      else if tag = Lfib.tag_no_binding then
        t.hooks.drop ~node packet "no-label-binding"
      else t.hooks.drop ~node packet "label-ttl"
    end
    else forward_ip_c t c node packet
  end
