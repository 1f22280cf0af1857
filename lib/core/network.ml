module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Packet = Mvpn_net.Packet
module Fib = Mvpn_net.Fib
module Plane = Mvpn_mpls.Plane
module Lfib = Mvpn_mpls.Lfib
module Ospf = Mvpn_routing.Ospf
module Port = Mvpn_qos.Port
module Telemetry = Mvpn_telemetry

let m_drops = Telemetry.Registry.counter "net.drops"
let m_delivered = Telemetry.Registry.counter "net.delivered"
let m_frr_switched = Telemetry.Registry.counter "resilience.frr.switched"
let m_frr_unprotected = Telemetry.Registry.counter "resilience.frr.unprotected"

(* Hop-trace label codes of the per-hop events, interned once. *)
let l_rx = Telemetry.Hop_trace.intern "rx"
let l_tx = Telemetry.Hop_trace.intern "tx"
let l_txstart = Telemetry.Hop_trace.intern "txstart"
let l_deliver = Telemetry.Hop_trace.intern "deliver"
let l_frr = Telemetry.Hop_trace.intern "frr"

module Str_tbl = Hashtbl.Make (String)

(* Per-class sojourn histograms, created on first delivery of each
   codepoint ("net.sojourn.EF", "net.sojourn.AF31", "net.sojourn.BE").
   The dscp→handle memo is process-wide and lazily grown from whichever
   domain first delivers that codepoint, hence the mutex; the histogram
   values themselves are per-domain (see Mvpn_telemetry.Histogram). *)
let sojourn_hists : (int, Telemetry.Histogram.t) Hashtbl.t = Hashtbl.create 8

let sojourn_mutex = Mutex.create ()

let sojourn_hist dscp =
  let key = Mvpn_net.Dscp.to_int dscp in
  Mutex.lock sojourn_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sojourn_mutex)
    (fun () ->
       match Hashtbl.find_opt sojourn_hists key with
       | Some h -> h
       | None ->
         let name = Format.asprintf "net.sojourn.%a" Mvpn_net.Dscp.pp dscp in
         let h = Telemetry.Registry.histogram ~lo:1e-6 name in
         Hashtbl.add sojourn_hists key h;
         h)

type verdict = Dataplane.verdict = Consumed | Continue

type trace_action =
  | Trace_receive of int option
  | Trace_transmit of int
  | Trace_deliver
  | Trace_drop of string

type trace_event = {
  trace_time : float;
  trace_node : int;
  trace_uid : int;
  trace_labels : int list;
  trace_action : trace_action;
}

(* A reason's authoritative count lives in [n] (always on, per
   network); [metric] mirrors it into the registry so telemetry cannot
   drift from the table when the global switch toggles mid-run. *)
type drop_entry = { mutable n : int; metric : Telemetry.Counter.t }

(* Conservation ledger (always on, plain int stores): every packet the
   network has ever been handed is injected, imported from another
   shard, or forked (multicast replication); every packet it no longer
   holds was delivered, dropped (table or port), exported to another
   shard, or consumed (a replicated original absorbed at the PE). The
   difference is [live] — packets in queues, in flight on links, or
   waiting in scheduled events. The invariant auditor checks the books
   balance every tick; [live] is maintained independently of the fate
   counters through the per-packet [fated] flag, so a miscounted fate
   genuinely unbalances the equation instead of cancelling out. *)
type flow_totals = {
  injected : int;
  imported : int;
  exported : int;
  forked : int;
  consumed : int;
  delivered : int;
  table_drops : int;
  live : int;
}

type t = {
  engine : Engine.t;
  (* The engine's clock cell, and a cell for the delivery latency
     ([now - created]): per-packet time reads and hand-offs go through
     these, so no float crosses a call boxed. *)
  clock : floatarray;
  lat : floatarray;
  topo : Topology.t;
  plane : Plane.t;
  policy : Qos_mapping.policy;
  fibs : Fib.t array;
  dp : Dataplane.t;
  ports : Port.t option array;  (* indexed by link id *)
  sinks : (Packet.t -> unit) array;
  drop_table : (string, drop_entry) Hashtbl.t;
  (* (plr, protected next hop) pairs currently detoured over a bypass:
     the switchover event fires once per failure episode, not once per
     packet; entries clear when the protected link comes back up. *)
  frr_engaged : (int * int, unit) Hashtbl.t;
  mutable total_drops : int;
  mutable injected_n : int;
  mutable imported_n : int;
  mutable exported_n : int;
  mutable forked_n : int;
  mutable consumed_n : int;
  mutable delivered_n : int;
  mutable live_n : int;
  (* Test-only sabotage: while positive, [drop_packet] skips the
     authoritative table increment (but still releases the packet and
     retires it from [live]) — the injected conservation bug the
     auditor must catch. *)
  mutable drop_leak : int;
  link_tx_bytes : Telemetry.Counter.t array;  (* indexed by link id *)
  (* Hot-path telemetry coalescing: while the engine is inside a batch
     window (Engine.in_batch), per-packet counter writes accumulate in
     the plain fields below and flush once per window via the engine's
     on_flush hook. Outside a window every write stays immediate, so
     hand-driven tests observe exact counters. *)
  mutable pending_delivered : int;
  pending_tx : int array;  (* indexed by link id *)
  link_dirty : bool array;  (* indexed by link id *)
  dirty_links : int array;  (* stack of dirty link ids *)
  mutable dirty_n : int;
  mutable drops_dirty : bool;
  (* Per-dscp memo of the global sojourn-histogram handles, and the
     builder domain's hop-trace ring: both replace a mutex / DLS lookup
     per delivered packet. A network is built and driven by exactly one
     domain (shards construct theirs inside Domain.spawn), so caching
     the domain-local ring in the record is safe. *)
  sojourn_cache : Telemetry.Histogram.t option array;
  mutable trace_ring : Telemetry.Hop_trace.t option;
  (* reason -> code of its "drop:<reason>" hop label, memoized per
     network so a traced drop skips the global intern table's mutex. *)
  drop_labels : int Str_tbl.t;
  mutable tracer : (trace_event -> unit) option;
  mutable slo : Telemetry.Slo.t option;
  mutable span_sampler : Telemetry.Span.sampler option;
  mutable fate_log : Telemetry.Fatelog.t option;
  mutable fate_hook :
    (time:float -> vpn:int -> band:int -> dropped:bool -> latency:float ->
     unit)
      option;
}

let trace_ring t =
  match t.trace_ring with
  | Some r -> r
  | None ->
    let r = Telemetry.Registry.trace () in
    t.trace_ring <- Some r;
    r

(* Record a hop with an interned label code (see the [l_*] codes). *)
let record_hop_p t ~node (p : Packet.t) code =
  if !Telemetry.Control.enabled then
    Telemetry.Hop_trace.record_code (trace_ring t)
      ~uid:p.Packet.uid ~clock:t.clock ~node code

let drop_label t reason =
  match Str_tbl.find t.drop_labels reason with
  | code -> code
  | exception Not_found ->
    let code = Telemetry.Hop_trace.intern ("drop:" ^ reason) in
    Str_tbl.add t.drop_labels reason code;
    code

(* Flush every coalesced counter. Accumulation only happens while
   telemetry is enabled, so the flush writes are forced on — the switch
   may have been toggled between accumulation and window exit, and
   counts observed while enabled must not be lost. The switch is saved
   and restored by hand, not through [Control.with_enabled], so a
   window exit allocates no closure; nothing in between can raise. *)
let flush_pending t =
  if t.pending_delivered <> 0 || t.dirty_n > 0 || t.drops_dirty then begin
    let enabled = Telemetry.Control.enabled in
    let saved = !enabled in
    enabled := true;
    if t.pending_delivered <> 0 then begin
      Telemetry.Counter.add m_delivered t.pending_delivered;
      t.pending_delivered <- 0
    end;
    for i = 0 to t.dirty_n - 1 do
      let id = t.dirty_links.(i) in
      Telemetry.Counter.add t.link_tx_bytes.(id) t.pending_tx.(id);
      t.pending_tx.(id) <- 0;
      t.link_dirty.(id) <- false
    done;
    t.dirty_n <- 0;
    if t.drops_dirty then begin
      Hashtbl.iter
        (fun _ e -> Telemetry.Counter.set e.metric e.n)
        t.drop_table;
      Telemetry.Counter.set m_drops t.total_drops;
      t.drops_dirty <- false
    end;
    enabled := saved
  end

let set_tracer t tracer = t.tracer <- tracer

let set_slo t slo = t.slo <- slo
let slo t = t.slo
let set_span_sampler t sampler = t.span_sampler <- sampler
let span_sampler t = t.span_sampler
let set_fate_log t log = t.fate_log <- log
let set_fate_hook t hook = t.fate_hook <- hook

(* Hand a terminal packet fate to the fate log, the fate hook, the
   conformance engine and the span sampler. Call only with telemetry
   enabled, after the terminal hop event is recorded so a sampled span
   sees it; a delivery also after [t.lat] holds its latency. The log
   and the engine read the time and the latency from the cells, so
   neither boxes a float. SLO/span keying: the tenant and its
   inner-header class — the same (vpn, band) view {!Accounting}
   invoices by; un-tenanted traffic books under vpn 0. *)
let observe_fate t (p : Packet.t) ~dropped =
  let vpn = match p.Packet.vpn with Some v -> v | None -> 0 in
  let band = Qos_mapping.band_of_dscp p.Packet.inner.Packet.dscp in
  (match t.fate_log with
   | Some log ->
     Telemetry.Fatelog.record log ~vpn ~band ~dropped ~clock:t.clock
       ~latency:t.lat
   | None -> ());
  (match t.fate_hook with
   | Some hook ->
     hook ~time:(Float.Array.get t.clock 0) ~vpn ~band ~dropped
       ~latency:(if dropped then 0.0 else Float.Array.get t.lat 0)
   | None -> ());
  (match t.slo with
   | Some slo ->
     if dropped then
       Telemetry.Slo.observe_drop_cell slo ~vpn ~band ~clock:t.clock
     else
       Telemetry.Slo.observe_delivery_cell slo ~vpn ~band ~clock:t.clock
         ~latency:t.lat
   | None -> ());
  match t.span_sampler with
  | Some s ->
    Telemetry.Span.offer s (Telemetry.Registry.trace ()) ~uid:p.Packet.uid
      ~vpn ~band ~dropped
  | None -> ()

let labels_of packet = Packet.label_values packet

(* One tracer emitter per action: each tests [tracer = None] before
   building anything, so with tracing off a hop allocates nothing (an
   action built by the caller would cost an allocation per hop). *)
let emit_transmit t ~node ~to_ (p : Packet.t) =
  match t.tracer with
  | None -> ()
  | Some f ->
    f
      { trace_time = Engine.now t.engine; trace_node = node;
        trace_uid = p.Packet.uid; trace_labels = labels_of p;
        trace_action = Trace_transmit to_ }

let emit_deliver t ~node (p : Packet.t) =
  match t.tracer with
  | None -> ()
  | Some f ->
    f
      { trace_time = Engine.now t.engine; trace_node = node;
        trace_uid = p.Packet.uid; trace_labels = labels_of p;
        trace_action = Trace_deliver }

let emit_receive t ~node ~from (p : Packet.t) =
  match t.tracer with
  | None -> ()
  | Some f ->
    f
      { trace_time = Engine.now t.engine; trace_node = node;
        trace_uid = p.Packet.uid; trace_labels = labels_of p;
        trace_action = Trace_receive from }

let emit_drop t ~node (p : Packet.t) reason =
  match t.tracer with
  | None -> ()
  | Some f ->
    f
      { trace_time = Engine.now t.engine; trace_node = node;
        trace_uid = p.Packet.uid; trace_labels = labels_of p;
        trace_action = Trace_drop reason }

(* Retire a packet from the live count, exactly once per incarnation:
   [fated] guards against terminal paths that compose (the default
   no-sink sink routes a delivery back through [drop_packet]). *)
let account_terminal t (p : Packet.t) =
  if not p.Packet.fated then begin
    p.Packet.fated <- true;
    t.live_n <- t.live_n - 1
  end

(* The terminal path of every discard, table drop or port discard
   (queue refusal, link down mid-queue) alike: trace it, retire it from
   [live], record its "drop:<reason>" hop, span-sample it and charge it
   against the tenant's SLO, then recycle its storage. Idempotent on
   the ledger and the pool — the default no-sink sink routes a
   delivered packet through here before [deliver] also releases. *)
let discard t ~node (p : Packet.t) reason =
  emit_drop t ~node p reason;
  account_terminal t p;
  if !Telemetry.Control.enabled then begin
    record_hop_p t ~node p (drop_label t reason);
    observe_fate t p ~dropped:true
  end;
  Packet.release p

(* Single-source drop accounting: the per-network table is the
   authority; the [net.drop.<reason>] and [net.drops] telemetry
   counters are set from it (never independently incremented), so they
   agree with {!drop_counts} whenever telemetry is on. Port discards
   stay out of the table by contract — read those from the port
   counters — and go straight to [discard]. *)
let drop_packet ~node ~packet t reason =
  if t.drop_leak > 0 then t.drop_leak <- t.drop_leak - 1
  else begin
    (* [find] and its exception, not [find_opt]: a known reason's drop
       allocates no option. *)
    let e =
      match Hashtbl.find t.drop_table reason with
      | e -> e
      | exception Not_found ->
        let e =
          { n = 0; metric = Telemetry.Registry.counter ("net.drop." ^ reason) }
        in
        Hashtbl.add t.drop_table reason e;
        e
    in
    e.n <- e.n + 1;
    t.total_drops <- t.total_drops + 1;
    (* The authoritative table row just advanced; mirror it into the
       registry now, or (inside a batch window) once at the flush. *)
    if Engine.in_batch t.engine then begin
      if !Telemetry.Control.enabled then t.drops_dirty <- true
    end
    else begin
      Telemetry.Counter.set e.metric e.n;
      Telemetry.Counter.set m_drops t.total_drops
    end
  end;
  discard t ~node packet reason

let engine t = t.engine
let topology t = t.topo
let plane t = t.plane
let policy t = t.policy

let fib t node = t.fibs.(node)

let dataplane t = t.dp

let add_interceptor t node f = Dataplane.add_interceptor t.dp node f

let set_sink t node f = t.sinks.(node) <- f

let port t ~link_id =
  if link_id < 0 || link_id >= Array.length t.ports then
    invalid_arg (Printf.sprintf "Network.port: unknown link %d" link_id);
  match t.ports.(link_id) with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Network.port: unknown link %d" link_id)

(* Facility-backup fast reroute happens here, at the universal egress
   choke point: when the link toward [to_] is down and this node holds
   a usable {!Lfib.protection} for that next hop, push the bypass label
   over whatever the packet already carries and hand it to the bypass
   neighbor instead. The bypass LSP merges at [to_], whose PHP
   penultimate hop pops the bypass label, so [to_] receives exactly the
   packet the dead link would have delivered — labelled or plain IP.
   Because the check reads live link state, the switch is effective the
   same tick the link dies: no recompile, no re-signalling in the hot
   path. Down links without a usable bypass count
   [resilience.frr.unprotected] and fall through to the port, whose
   link-down accounting names the loss. *)
let transmit t ~from ~to_ packet =
  let lid = Topology.find_link_id t.topo from to_ in
  if lid < 0 then drop_packet ~node:from ~packet t "no-link"
  else begin
    let l = Topology.link t.topo lid in
    let l, to_ =
      if l.Topology.up then (l, to_)
      else
        match Lfib.protection (Plane.lfib t.plane from) ~next_hop:to_ with
        | Some pr when pr.Lfib.usable () ->
          (match Topology.find_link t.topo from pr.Lfib.via with
           | Some bypass ->
             let top = Packet.top_packed packet in
             let exp, ttl =
               if top >= 0 then (Packet.Shim.exp top, Packet.Shim.ttl top)
               else (0, (Packet.visible_header packet).Packet.ttl)
             in
             Packet.push_label packet ~label:pr.Lfib.push ~exp ~ttl;
             Telemetry.Counter.incr m_frr_switched;
             if not (Hashtbl.mem t.frr_engaged (from, to_)) then begin
               Hashtbl.replace t.frr_engaged (from, to_) ();
               if !Telemetry.Control.enabled then
                 Telemetry.Event_log.record
                   (Telemetry.Registry.events ())
                   (Telemetry.Event_log.Frr_switchover
                      { src = from; dst = to_ })
             end;
             record_hop_p t ~node:from packet l_frr;
             (bypass, pr.Lfib.via)
           | None -> (l, to_))
        | Some _ | None ->
          Telemetry.Counter.incr m_frr_unprotected;
          (l, to_)
    in
    (match t.ports.(l.Topology.id) with
     | Some p ->
       emit_transmit t ~node:from ~to_ packet;
       if !Telemetry.Control.enabled then begin
         let id = l.Topology.id in
         if Engine.in_batch t.engine then begin
           if not t.link_dirty.(id) then begin
             t.link_dirty.(id) <- true;
             t.dirty_links.(t.dirty_n) <- id;
             t.dirty_n <- t.dirty_n + 1
           end;
           t.pending_tx.(id) <- t.pending_tx.(id) + packet.Packet.size
         end
         else Telemetry.Counter.add t.link_tx_bytes.(id) packet.Packet.size;
         record_hop_p t ~node:from packet l_tx
       end;
       Port.send p packet
     | None -> drop_packet ~node:from ~packet t "no-link")
  end

(* Per-network memo in front of the mutex-guarded global table: after
   the first delivery of a codepoint, the handle comes from a plain
   array read. *)
let sojourn_for t dscp =
  let key = Mvpn_net.Dscp.to_int dscp in
  if key >= 0 && key < Array.length t.sojourn_cache then
    match t.sojourn_cache.(key) with
    | Some h -> h
    | None ->
      let h = sojourn_hist dscp in
      t.sojourn_cache.(key) <- Some h;
      h
  else sojourn_hist dscp

let deliver_to t ~node consume packet =
  emit_deliver t ~node packet;
  (* Book the delivery before the sink runs: if the sink is the
     drop-counting default, the drop path sees the packet already fated
     and only the table row moves (which the auditor then flags — a
     delivery nobody claimed is an accounting anomaly). *)
  if not packet.Packet.fated then begin
    packet.Packet.fated <- true;
    t.live_n <- t.live_n - 1;
    t.delivered_n <- t.delivered_n + 1
  end;
  if !Telemetry.Control.enabled then begin
    if Engine.in_batch t.engine then
      t.pending_delivered <- t.pending_delivered + 1
    else Telemetry.Counter.incr m_delivered;
    record_hop_p t ~node packet l_deliver;
    Float.Array.set t.lat 0
      (Float.Array.get t.clock 0 -. Float.Array.get packet.Packet.created 0);
    Telemetry.Histogram.observe_cell
      (sojourn_for t (Packet.visible_dscp packet))
      t.lat;
    observe_fate t packet ~dropped:false
  end;
  consume packet;
  (* Past the consumer (the last one: SLA bookkeeping reads scalars
     and never retains the packet). Safe even when it was the
     drop-counting default sink — release is idempotent. *)
  Packet.release packet

let deliver t node packet = deliver_to t ~node t.sinks.(node) packet

let forward_ip t node packet = Dataplane.forward_ip t.dp node packet

let receive t node ~from packet = Dataplane.receive t.dp node ~from packet

let note_inject t =
  t.injected_n <- t.injected_n + 1;
  t.live_n <- t.live_n + 1

let inject t node packet =
  note_inject t;
  receive t node ~from:None packet

(* Shard-boundary and replication hand-offs: the runner's exchange and
   the PE multicast path move packets into and out of a network without
   going through [inject]/[deliver]; these keep the ledger balanced. *)
let note_import t =
  t.imported_n <- t.imported_n + 1;
  t.live_n <- t.live_n + 1

let note_export t =
  t.exported_n <- t.exported_n + 1;
  t.live_n <- t.live_n - 1

let note_fork t =
  t.forked_n <- t.forked_n + 1;
  t.live_n <- t.live_n + 1

let note_consume t (p : Packet.t) =
  if not p.Packet.fated then begin
    p.Packet.fated <- true;
    t.live_n <- t.live_n - 1;
    t.consumed_n <- t.consumed_n + 1
  end

let flow_totals t =
  { injected = t.injected_n; imported = t.imported_n;
    exported = t.exported_n; forked = t.forked_n; consumed = t.consumed_n;
    delivered = t.delivered_n; table_drops = t.total_drops;
    live = t.live_n }

let port_drop_total t =
  Array.fold_left
    (fun acc slot ->
       match slot with
       | None -> acc
       | Some p ->
         let c = Port.counters p in
         acc + c.Port.dropped_queue + c.Port.dropped_link_down
         + c.Port.dropped_fault)
    0 t.ports

(* The conservation identity, and with [~strict] also [live >= 0]; on
   failure, one line naming every term. The line is formatted only on
   failure: the auditor calls this every tick. *)
let ledger_fault t ~strict =
  let port = port_drop_total t in
  let lhs = t.injected_n + t.imported_n + t.forked_n in
  let rhs =
    t.delivered_n + t.total_drops + port + t.exported_n + t.consumed_n
    + t.live_n
  in
  if lhs = rhs && not (strict && t.live_n < 0) then None
  else
    Some
      (Printf.sprintf
         "injected=%d imported=%d forked=%d vs delivered=%d table_drops=%d \
          port_drops=%d exported=%d consumed=%d live=%d (lhs=%d rhs=%d)"
         t.injected_n t.imported_n t.forked_n t.delivered_n t.total_drops
         port t.exported_n t.consumed_n t.live_n lhs rhs)

let books_fault t = ledger_fault t ~strict:false

let close_books t =
  match ledger_fault t ~strict:true with
  | Some line -> failwith ("packet ledger does not close: " ^ line)
  | None -> ()

(* A plain loop: no closure per call, so a caller holding a prebuilt
   visitor walks the ports without allocating. *)
let iter_ports t f =
  for link_id = 0 to Array.length t.ports - 1 do
    match t.ports.(link_id) with Some p -> f ~link_id p | None -> ()
  done

let set_drop_leak t n =
  if n < 0 then invalid_arg "Network.set_drop_leak: negative count";
  t.drop_leak <- n

let create ?(policy = Qos_mapping.Best_effort) ?wred
    ?(route_cache = true) ?(seed = 7) engine topo =
  let nodes = Topology.node_count topo in
  let master_rng = Rng.create seed in
  let links = Topology.links topo in
  let n_links = Topology.link_count topo in
  let plane = Plane.create ~nodes in
  let fibs = Array.init nodes (fun _ -> Fib.create ()) in
  let dp = Dataplane.create ~cache:route_cache ~nodes ~plane ~fibs () in
  (* Ports and the dataplane hooks capture the network record in their
     callbacks, so the record is built first with empty port slots and
     the hooks wired afterwards. *)
  let net =
    { engine; clock = Engine.clock engine; lat = Float.Array.make 1 0.0;
      topo; plane; policy; fibs; dp;
      ports = Array.make (max 1 n_links) None;
      sinks = Array.make nodes (fun _ -> ());
      drop_table = Hashtbl.create 16;
      frr_engaged = Hashtbl.create 8;
      total_drops = 0;
      injected_n = 0; imported_n = 0; exported_n = 0; forked_n = 0;
      consumed_n = 0; delivered_n = 0; live_n = 0;
      drop_leak = 0;
      link_tx_bytes =
        Array.init (max 1 n_links) (fun i ->
            Telemetry.Registry.counter
              (Printf.sprintf "net.link%d.tx_bytes" i));
      pending_delivered = 0;
      pending_tx = Array.make (max 1 n_links) 0;
      link_dirty = Array.make (max 1 n_links) false;
      dirty_links = Array.make (max 1 n_links) 0;
      dirty_n = 0;
      drops_dirty = false;
      sojourn_cache = Array.make 64 None;
      trace_ring = None;
      drop_labels = Str_tbl.create 8;
      tracer = None;
      slo = None;
      span_sampler = None;
      fate_log = None;
      fate_hook = None }
  in
  Engine.on_flush engine (fun () -> flush_pending net);
  (* Give the global event log a clock so producers without an engine
     handle (topology flaps, dataplane recompiles) stamp sim time. *)
  Telemetry.Event_log.set_clock
    (Telemetry.Registry.events ())
    (fun () -> Engine.now engine);
  (* A repaired link ends its fast-reroute episode: the next failure of
     the same link announces a fresh switchover. *)
  Topology.on_duplex_change topo (fun ~a ~b ~up ->
      if up then begin
        Hashtbl.remove net.frr_engaged (a, b);
        Hashtbl.remove net.frr_engaged (b, a)
      end);
  Dataplane.set_hooks dp
    { Dataplane.transmit = (fun ~from ~to_ p -> transmit net ~from ~to_ p);
      deliver = (fun ~node p -> deliver net node p);
      drop = (fun ~node p reason -> drop_packet ~node ~packet:p net reason);
      notify_receive =
        (fun ~node ~from p ->
           emit_receive net ~node ~from p;
           record_hop_p net ~node p l_rx) };
  (* Default sinks count unclaimed deliveries. *)
  for v = 0 to nodes - 1 do
    net.sinks.(v) <- (fun packet -> drop_packet ~node:v ~packet net "no-sink")
  done;
  List.iter
    (fun (l : Topology.link) ->
       let qdisc =
         Qos_mapping.make_qdisc ~rng:(Rng.fork master_rng) ?wred policy
       in
       let p =
         Port.create engine ~link:l ~qdisc
           ~classify:(Qos_mapping.classify policy)
           ~on_txstart:(fun packet ->
               record_hop_p net ~node:l.Topology.src packet l_txstart)
           ~on_drop:(fun ~reason packet ->
               discard net ~node:l.Topology.src packet reason)
           ~on_deliver:
             (* [Some src] hoisted: one box per port, not per packet. *)
             (let from = Some l.Topology.src in
              fun packet -> receive net l.Topology.dst ~from packet)
       in
       net.ports.(l.Topology.id) <- Some p)
    links;
  net

(* Per node: the same table as [Fib.clear_source fib Igp] followed by
   adding every route of the router's OSPF table, without tearing down
   and regrowing the trie. Only IGP routes the new table no longer
   carries are removed (listed first, so the walk does not mutate the
   trie it reads; nothing is consed when none is stale); the rest are
   overwritten in place, and a route the OSPF table kept (physically)
   is re-added without a fresh box. The FIB's generation moves exactly
   when the clear-and-refill would have moved it (a removal, or a
   non-empty OSPF table), so the dataplane recompiles the same nodes. *)
let refresh_igp ?(members = fun _ -> true) t ospf =
  (* One set of closures for the whole walk, reading the node at hand
     through [fib] and [source]: nothing is allocated per node. *)
  let fib = ref (Fib.create ()) and source = ref (Fib.create ()) in
  let victims = ref [] in
  let collect p (r : Fib.route) =
    if r.Fib.source = Fib.Igp
       && (match Fib.find !source p with None -> true | Some _ -> false)
    then victims := p :: !victims
  in
  let remove p = ignore (Fib.remove !fib p) in
  let add p r = Fib.add !fib p r in
  for node = 0 to Array.length t.fibs - 1 do
    if members node then begin
      fib := t.fibs.(node);
      source := Ospf.fib ospf node;
      victims := [];
      Fib.iter collect !fib;
      List.iter remove !victims;
      Fib.iter add !source
    end
  done

let drop_counts t =
  Hashtbl.fold (fun k e acc -> (k, e.n) :: acc) t.drop_table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let drops t = t.total_drops
