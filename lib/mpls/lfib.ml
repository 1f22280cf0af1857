module Packet = Mvpn_net.Packet
module Telemetry = Mvpn_telemetry

let m_swap = Telemetry.Registry.counter "lfib.swap"
let m_pop = Telemetry.Registry.counter "lfib.pop"
let m_pop_and_ip = Telemetry.Registry.counter "lfib.pop_and_ip"
let m_no_binding = Telemetry.Registry.counter "lfib.no_binding"
let m_ttl_expired = Telemetry.Registry.counter "lfib.ttl_expired"

type op = Swap of int | Pop | Pop_and_ip

type entry = { op : op; next_hop : int }

type protection = { push : int; via : int; usable : unit -> bool }

let local = -1

type t = {
  mutable table : entry option array;
  mutable count : int;
  (* Facility-backup NHLFEs, keyed by the protected next hop. Consulted
     by the I/O shell when the primary link is down; never by
     [step_packed], so the per-packet decision path is untouched while
     links are healthy. *)
  protections : (int, protection) Hashtbl.t;
}

let create () =
  { table = [||]; count = 0; protections = Hashtbl.create 4 }

let ensure t label =
  let cap = Array.length t.table in
  if label >= cap then begin
    let ncap = max 64 (max (label + 1) (2 * cap)) in
    let ntable = Array.make ncap None in
    Array.blit t.table 0 ntable 0 cap;
    t.table <- ntable
  end

let install t ~in_label entry =
  if not (Label.valid in_label) then
    invalid_arg (Printf.sprintf "Lfib.install: invalid label %d" in_label);
  if Label.is_reserved in_label then
    invalid_arg (Printf.sprintf "Lfib.install: reserved label %d" in_label);
  ensure t in_label;
  if t.table.(in_label) = None then t.count <- t.count + 1;
  t.table.(in_label) <- Some entry

let uninstall t ~in_label =
  if in_label >= 0 && in_label < Array.length t.table
  && t.table.(in_label) <> None
  then begin
    t.table.(in_label) <- None;
    t.count <- t.count - 1;
    true
  end else false

let lookup t label =
  if label >= 0 && label < Array.length t.table then t.table.(label)
  else None

let size t = t.count

let set_protection t ~next_hop ~push ~via ~usable =
  if not (Label.valid push) then
    invalid_arg (Printf.sprintf "Lfib.set_protection: invalid label %d" push);
  Hashtbl.replace t.protections next_hop { push; via; usable }

let protection t ~next_hop = Hashtbl.find_opt t.protections next_hop

let clear_protections t = Hashtbl.reset t.protections

(* RFC 3443 uniform model: the outermost shim carries the packet's real
   TTL, so a pop is still a hop — decrement the popped shim's TTL and
   copy it onto whatever the pop exposed (the next shim or the IP
   header), never increasing an inner TTL. Everything below works on
   packed shims (immediate ints), so a step never allocates. *)
let pop_and_propagate_ttl packet popped =
  ignore (Packet.pop_packed packet);
  let ttl = Packet.Shim.ttl popped - 1 in
  let inner = Packet.top_packed packet in
  if inner >= 0 then begin
    if ttl < Packet.Shim.ttl inner then
      Packet.set_top packet (Packet.Shim.with_ttl inner ttl)
  end
  else begin
    let hdr = Packet.visible_header packet in
    hdr.Packet.ttl <- min hdr.Packet.ttl ttl
  end

(* Packed step result: [(arg + 1) lsl 2 lor tag], tags below. The +1
   keeps [local] (-1) encodable; labels and node ids are well inside
   the remaining bits. An immediate int instead of a constructor
   block, so the per-hop forwarding decision allocates nothing. *)
let tag_forward = 0
let tag_ip_continue = 1
let tag_no_binding = 2
let tag_ttl_expired = 3

let packed_tag r = r land 3
let packed_arg r = (r lsr 2) - 1

let pack tag arg = ((arg + 1) lsl 2) lor tag

let step_packed t packet =
  let shim = Packet.top_packed packet in
  if shim < 0 then invalid_arg "Lfib.step_packed: unlabelled packet";
  if Packet.Shim.ttl shim <= 1 then begin
    Mvpn_telemetry.Counter.incr m_ttl_expired;
    pack tag_ttl_expired 0
  end
  else begin
    match lookup t (Packet.Shim.label shim) with
    | None ->
      Mvpn_telemetry.Counter.incr m_no_binding;
      pack tag_no_binding (Packet.Shim.label shim)
    | Some { op; next_hop } ->
      match op with
      | Swap out ->
        Mvpn_telemetry.Counter.incr m_swap;
        Packet.swap_label packet ~label:out;
        pack tag_forward next_hop
      | Pop ->
        Mvpn_telemetry.Counter.incr m_pop;
        pop_and_propagate_ttl packet shim;
        if Packet.labelled packet then pack tag_forward next_hop
        else pack tag_ip_continue next_hop
      | Pop_and_ip ->
        Mvpn_telemetry.Counter.incr m_pop_and_ip;
        pop_and_propagate_ttl packet shim;
        pack tag_ip_continue next_hop
  end
