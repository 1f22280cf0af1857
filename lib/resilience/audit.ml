(* Streaming runtime invariant auditor: a cheap periodic engine tick
   ([Engine.every], like the Sampler) that re-proves, every tick, the
   properties the architecture's steady-state claims rest on — packet
   conservation against the authoritative drop table, loop bounds from
   the hop-trace ring, FRR protection coverage, SLO error-budget
   monotonicity, queue-depth sanity and bounded live-heap growth.
   Violations count [audit.violations], emit typed [Invariant_violated]
   events, and optionally fail fast. The checks read plain fields and
   bounded rings, so an audited run stays within a few percent of the
   unaudited rate (E18 gates >= 0.95x). *)

module Engine = Mvpn_sim.Engine
module Packet = Mvpn_net.Packet
module Network = Mvpn_core.Network
module Scenario = Mvpn_core.Scenario
module Port = Mvpn_qos.Port
module Queue_disc = Mvpn_qos.Queue_disc
module T = Mvpn_telemetry

let k_tick = Mvpn_sim.Profile.register_kind "audit.tick"

let m_ticks = T.Registry.counter "audit.ticks"
let m_violations = T.Registry.counter "audit.violations"
let m_conservation = T.Registry.counter "audit.check.conservation"
let m_loops = T.Registry.counter "audit.check.loops"
let m_frr = T.Registry.counter "audit.check.frr"
let m_slo = T.Registry.counter "audit.check.slo"
let m_queues = T.Registry.counter "audit.check.queues"
let m_heap = T.Registry.counter "audit.check.heap"
let m_pool = T.Registry.counter "audit.check.pool"

exception Violation of string * string

let default_interval = 1.0

(* One rx per TTL decrement at most; double it for slack (bypass labels
   carry their own TTL budget). *)
let default_max_hops = 2 * Packet.default_ttl

let rx_code = T.Hop_trace.intern "rx"

(* The four cumulative per-band counters the queue check tracks, in
   their slot order within a (link, band) record of [queue_prev]. *)
let queue_counters =
  Queue_disc.[| Enqueued; Dequeued; Tail_dropped; Red_dropped |]

type t = {
  net : Network.t;
  fail_fast : bool;
  max_hops : int;
  heap_slack : float;
  frr : Frr.t option;
  mutable ticks : int;
  mutable violations : int;
  mutable recent : (string * string) list;  (* newest first, capped *)
  mutable stop : unit -> unit;
  (* baselines and high-water marks *)
  mutable frr_base : int option;  (* protected + unprotected links *)
  mutable frr_switched_prev : int;
  slo_prev : (int * int, float) Hashtbl.t;  (* (vpn, band) -> spent *)
  mutable slo_seen : T.Slo.t option;
  (* Last seen counters, 4 ints per (link, band) from [queue_base.(link)]
     on; -1 until first seen, so the first reading compares clean. *)
  queue_base : int array;
  queue_prev : int array;
  (* Per-tick rx count per packet uid, open addressing over
     [rx_uid]/[rx_count]; a slot is live iff its stamp is [rx_epoch]. *)
  mutable rx_uid : int array;
  mutable rx_count : int array;
  mutable rx_stamp : int array;
  mutable rx_epoch : int;
  (* Prebuilt visitors: a tick's loop and queue checks allocate no
     closure. *)
  mutable visit_rx : int -> int -> unit;
  mutable visit_port : link_id:int -> Port.t -> unit;
  mutable heap_base : int option;
  mutable pool_base : int option;
}

let max_recent = 16

let violate t invariant detail =
  t.violations <- t.violations + 1;
  T.Counter.incr m_violations;
  T.Counter.incr (T.Registry.counter ("audit.violation." ^ invariant));
  if !T.Control.enabled then
    T.Event_log.record
      (T.Registry.events ())
      (T.Event_log.Invariant_violated { invariant; detail });
  t.recent <-
    (invariant, detail)
    :: (if List.length t.recent >= max_recent then
          List.filteri (fun i _ -> i < max_recent - 1) t.recent
        else t.recent);
  if t.fail_fast then raise (Violation (invariant, detail))

(* injected + imported + forked
   = delivered + table drops + port drops + exported + consumed + live.
   Both sides are maintained by independent mechanisms (the fate
   counters vs the per-packet [fated] discipline behind [live]), so a
   lost or double-counted fate genuinely unbalances the books. Covers
   unicast, PE-replicated and pseudowire traffic; see
   Network.books_fault. *)
let check_conservation t =
  T.Counter.incr m_conservation;
  match Network.books_fault t.net with
  | Some detail -> violate t "conservation" detail
  | None -> ()

(* With pooling on, [allocated - live - pool] counts packet records
   neither circulating nor retired — leaked. It need not be zero (other
   networks earlier in the process may have leftovers) but must stay
   constant between ticks. Domain-local data only: the pool belongs to
   this domain and [allocated] is process-wide, so the check is valid
   only when no other domain can be allocating — the main domain with
   no cross-shard traffic. *)
let check_pool t =
  let f = Network.flow_totals t.net in
  if
    Packet.pooling () && Domain.is_main_domain ()
    && f.Network.imported = 0 && f.Network.exported = 0
  then begin
    T.Counter.incr m_pool;
    let offset = Packet.allocated () - f.Network.live - Packet.pool_size () in
    match t.pool_base with
    | Some base when offset <> base ->
      violate t "pool"
        (Printf.sprintf
           "leak witness moved: allocated=%d live=%d pool=%d offset=%d \
            (baseline %d)"
           (Packet.allocated ()) f.Network.live (Packet.pool_size ()) offset
           base)
    | Some _ -> ()
    | None -> t.pool_base <- Some offset
  end

(* No packet incarnation may be received more than [max_hops] times —
   the TTL bound, read back from the hop-trace ring. The ring only
   holds the most recent window, so this is a streaming spot check:
   any loop that outlives the ring shows up in it. Empty ring (trace
   disabled) passes trivially. *)
let count_rx t uid code =
  if code = rx_code then begin
    let mask = Array.length t.rx_uid - 1 in
    let i = ref (uid land mask) in
    while t.rx_stamp.(!i) = t.rx_epoch && t.rx_uid.(!i) <> uid do
      i := (!i + 1) land mask
    done;
    let n =
      if t.rx_stamp.(!i) = t.rx_epoch then t.rx_count.(!i) + 1
      else begin
        t.rx_stamp.(!i) <- t.rx_epoch;
        t.rx_uid.(!i) <- uid;
        1
      end
    in
    t.rx_count.(!i) <- n;
    if n = t.max_hops + 1 then
      violate t "loops"
        (Printf.sprintf "packet uid %d seen rx %d times (bound %d)" uid n
           t.max_hops)
  end

let check_loops t =
  T.Counter.incr m_loops;
  let ring = T.Registry.trace () in
  (* At most half full: probes stay short and always find a free slot. *)
  let want = ref 16 in
  while !want < 2 * T.Hop_trace.capacity ring do want := 2 * !want done;
  if Array.length t.rx_uid < !want then begin
    t.rx_uid <- Array.make !want 0;
    t.rx_count <- Array.make !want 0;
    t.rx_stamp <- Array.make !want 0;
    t.rx_epoch <- 0
  end;
  t.rx_epoch <- t.rx_epoch + 1;
  T.Hop_trace.iter_codes t.visit_rx ring

(* Protection coverage: every armed directed link is either protected
   or counted unprotected — the split may shift as chaos rewires
   bypasses, but the superset (their sum) is the armed-link set and
   must not change. The switchover counter may only grow. *)
let check_frr t =
  match t.frr with
  | None -> ()
  | Some f ->
    T.Counter.incr m_frr;
    let s = Frr.stats f in
    let total = s.Frr.protected_links + s.Frr.unprotected_links in
    (match t.frr_base with
     | None -> t.frr_base <- Some total
     | Some base ->
       if total <> base then
         violate t "frr"
           (Printf.sprintf
              "protection superset changed: protected=%d unprotected=%d \
               sum=%d (baseline %d)"
              s.Frr.protected_links s.Frr.unprotected_links total base));
    let switched = T.Registry.counter_value "resilience.frr.switched" in
    if switched < t.frr_switched_prev then
      violate t "frr"
        (Printf.sprintf "resilience.frr.switched went backwards: %d < %d"
           switched t.frr_switched_prev);
    t.frr_switched_prev <- switched

(* Error budget is spent, never refunded: cumulative [budget_spent]
   per (vpn, band) must be non-decreasing tick over tick. Reads
   whichever SLO engine is attached to the network at tick time. *)
let check_slo t =
  match Network.slo t.net with
  | None -> ()
  | Some slo ->
    T.Counter.incr m_slo;
    (match t.slo_seen with
     | Some prev when prev == slo -> ()
     | _ ->
       Hashtbl.reset t.slo_prev;
       t.slo_seen <- Some slo);
    List.iter
      (fun (r : T.Slo.report) ->
         let key = (r.T.Slo.vpn, r.T.Slo.band) in
         (match Hashtbl.find_opt t.slo_prev key with
          | Some prev when r.T.Slo.budget_spent +. 1e-9 < prev ->
            violate t "slo"
              (Printf.sprintf
                 "vpn %d band %d budget_spent went backwards: %g < %g"
                 r.T.Slo.vpn r.T.Slo.band r.T.Slo.budget_spent prev)
          | _ -> ());
         Hashtbl.replace t.slo_prev key r.T.Slo.budget_spent)
      (T.Slo.reports slo)

(* Per-band queue books: cumulative counters only grow, and the implied
   standing depth (enqueued - dequeued - drops) is never negative. *)
let check_port t ~link_id p =
  let q = Port.qdisc p in
  for band = 0 to Queue_disc.band_count q - 1 do
    let enq = Queue_disc.band_counter q ~band Queue_disc.Enqueued
    and deq = Queue_disc.band_counter q ~band Queue_disc.Dequeued in
    (* [enqueued] counts only accepted packets — tail/RED drops are
       tallied separately, never enqueued — so standing depth is the
       plain difference. *)
    if enq - deq < 0 then
      violate t "queues"
        (Printf.sprintf
           "link %d band %d negative depth: enq=%d deq=%d tail=%d red=%d"
           link_id band enq deq
           (Queue_disc.band_counter q ~band Queue_disc.Tail_dropped)
           (Queue_disc.band_counter q ~band Queue_disc.Red_dropped));
    let base = t.queue_base.(link_id) + (4 * band) in
    let backwards = ref false in
    for i = 0 to 3 do
      let now = Queue_disc.band_counter q ~band queue_counters.(i) in
      if now < t.queue_prev.(base + i) then backwards := true;
      t.queue_prev.(base + i) <- now
    done;
    if !backwards then
      violate t "queues"
        (Printf.sprintf "link %d band %d cumulative counter went backwards"
           link_id band)
  done

let check_queues t =
  T.Counter.incr m_queues;
  Network.iter_ports t.net t.visit_port

(* Bounded residency: the live major heap must not grow without bound
   over a soak. The baseline is taken a few ticks in (after arming
   transients); the bound is generous — a slack factor plus a fixed
   allowance — because this is a leak detector, not a perf gate. *)
let heap_fixed_allowance = 16_000_000  (* words *)

let check_heap t =
  T.Counter.incr m_heap;
  let hw = (Gc.quick_stat ()).Gc.heap_words in
  match t.heap_base with
  | None -> if t.ticks >= 3 then t.heap_base <- Some hw
  | Some base ->
    let bound =
      max
        (int_of_float (t.heap_slack *. float_of_int base))
        (base + heap_fixed_allowance)
    in
    if hw > bound then
      violate t "heap"
        (Printf.sprintf "live heap %d words > bound %d (baseline %d)" hw
           bound base)

let run_checks t =
  check_conservation t;
  check_pool t;
  check_loops t;
  check_frr t;
  check_slo t;
  check_queues t;
  check_heap t

let stop t = t.stop ()

let ticks t = t.ticks
let violations t = t.violations
let recent_violations t = List.rev t.recent

let start ?(interval = default_interval) ?until ?(fail_fast = false)
    ?(max_hops = default_max_hops) ?(heap_slack = 4.0) ?frr sc =
  if max_hops < 1 then invalid_arg "Audit.start: max_hops must be >= 1";
  if not (heap_slack >= 1.0) then
    invalid_arg "Audit.start: heap_slack must be >= 1";
  let net = Scenario.network sc in
  (* Ports and their band counts are fixed when the network is built. *)
  let queue_base =
    Array.make (Mvpn_sim.Topology.link_count (Network.topology net)) 0
  in
  let slots = ref 0 in
  Network.iter_ports net (fun ~link_id p ->
      queue_base.(link_id) <- !slots;
      slots := !slots + (4 * Queue_disc.band_count (Port.qdisc p)));
  let t =
    { net; fail_fast; max_hops; heap_slack; frr;
      ticks = 0; violations = 0; recent = []; stop = ignore;
      frr_base = None; frr_switched_prev = 0;
      slo_prev = Hashtbl.create 16; slo_seen = None;
      queue_base; queue_prev = Array.make !slots (-1);
      rx_uid = [||]; rx_count = [||]; rx_stamp = [||]; rx_epoch = 0;
      visit_rx = (fun _ _ -> ()); visit_port = (fun ~link_id:_ _ -> ());
      heap_base = None; pool_base = None }
  in
  t.visit_rx <- (fun uid code -> count_rx t uid code);
  t.visit_port <- (fun ~link_id p -> check_port t ~link_id p);
  t.stop <-
    Engine.every (Scenario.engine sc) ~kind:k_tick ~interval ?until
      (fun () ->
         t.ticks <- t.ticks + 1;
         T.Counter.incr m_ticks;
         run_checks t);
  t
