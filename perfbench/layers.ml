(* The traced run (--trace 1): per-layer metrics for one workload.

   In-situ numbers come from public hooks — the engine's Profile
   ledger, a pass-through interceptor at every node, the fate hook,
   Registry counters, Port counters, Dataplane.recompiles and the
   runner's outcome. Isolated numbers replay inputs captured in the
   same run through one layer's public function, in ns per call. Every
   traced pass must reproduce the untraced pass's fingerprint. *)

module T = Mvpn_telemetry
module Engine = Mvpn_sim.Engine
module Profile = Mvpn_sim.Profile
module Topology = Mvpn_sim.Topology
module Network = Mvpn_core.Network
module Scenario = Mvpn_core.Scenario
module Site = Mvpn_core.Site
module Vrf = Mvpn_core.Vrf
module Qos_mapping = Mvpn_core.Qos_mapping
module Packet = Mvpn_net.Packet
module Ipv4 = Mvpn_net.Ipv4
module Fib = Mvpn_net.Fib
module Lfib = Mvpn_mpls.Lfib
module Plane = Mvpn_mpls.Plane
module Queue_disc = Mvpn_qos.Queue_disc
module Port = Mvpn_qos.Port
module Runner = Mvpn_par.Runner
module P = Mvpn_provision

(* Every per-layer metric, in report order, with its unit. A workload
   whose layer does no work reports 0 (the layer's count is 0). *)
let catalog =
  [ ("sim.events", "count"); ("sim.scheduled", "count");
    ("sim.kind.port_tx", "count"); ("sim.kind.port_propagate", "count");
    ("sim.kind.traffic_src", "count"); ("sim.kind.timer", "count");
    ("sim.pop_ns", "ns"); ("sim.handler_ns", "ns"); ("sim.flush_ns", "ns");
    ("sim.ledger_ns", "ns"); ("sim.cpu_ns_per_event", "ns");
    ("sim.queue_ns", "ns"); ("sim.queue_window", "count");
    ("core.hops_per_pkt", "hops");
    ("core.fib_cache_hit", "ratio"); ("core.fib_cache_lookups", "count");
    ("core.ftn_cache_hit", "ratio"); ("core.ftn_cache_lookups", "count");
    ("core.vrf_cache_hit", "ratio"); ("core.vrf_cache_lookups", "count");
    ("core.recompiles", "count"); ("core.vrf_lookup_ns", "ns");
    ("core.shell_ns", "ns"); ("core.shell_negative", "flag");
    ("mpls.lfib_steps", "count"); ("mpls.lfib_step_ns", "ns");
    ("mpls.lfib_replayed", "count");
    ("net.fib_lookup_ns", "ns"); ("net.fib_lookups", "count");
    ("net.fib_same_hops_ns", "ns"); ("net.pkts_allocated", "count");
    ("net.pool_size", "count");
    ("qos.enqueue_ns", "ns"); ("qos.dequeue_ns", "ns");
    ("qos.port_offered", "count"); ("qos.queue_drops", "count");
    ("qos.max_core_util", "ratio"); ("qos.replayed", "count");
    ("telemetry.fates", "count"); ("telemetry.slo_observe_ns", "ns");
    ("resilience.audit_ticks", "count"); ("resilience.audit_us_per_tick", "us");
    ("resilience.faults", "count"); ("resilience.frr_switched", "count");
    ("resilience.resignal", "count"); ("resilience.audit_violations", "count");
    ("routing.mpbgp_run_s", "s"); ("routing.messages", "count");
    ("routing.store_size", "count");
    ("provision.compile_s", "s"); ("provision.delta_p50_ms", "ms");
    ("provision.delta_p99_ms", "ms"); ("provision.delta_ops", "count");
    ("provision.touched_vrfs_mean", "count");
    ("provision.bytes_per_route", "B"); ("provision.oracle_s", "s");
    ("provision.routes", "count");
    ("par.shards", "count"); ("par.exchanged", "count");
    ("par.cut_links", "count"); ("par.leftover", "count");
    ("par.overflow", "count"); ("par.imbalance", "ratio");
    ("par.cpu_over_wall", "ratio");
    ("bench.untraced_run_cpu_s", "s"); ("bench.traced_run_cpu_s", "s");
    ("bench.trace_overhead_s", "s"); ("bench.traced_fp_match", "flag");
    ("bench.spans", "count") ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64

let set name v =
  if not (List.mem_assoc name catalog) then invalid_arg ("Layers.set " ^ name);
  Hashtbl.replace values name v

let seti name v = set name (float_of_int v)
let get name = Option.value ~default:0.0 (Hashtbl.find_opt values name)

(* A growable int or float column, capped so captures stay small. *)
module Col = struct
  type t = { mutable a : int array; mutable n : int; cap : int }

  let create cap = { a = Array.make 1024 0; n = 0; cap }

  let add c x =
    if c.n < c.cap then begin
      if c.n = Array.length c.a then begin
        let b = Array.make (2 * c.n) 0 in
        Array.blit c.a 0 b 0 c.n;
        c.a <- b
      end;
      c.a.(c.n) <- x;
      c.n <- c.n + 1
    end
end

module Fcol = struct
  type t = { mutable a : floatarray; mutable n : int }

  let create () = { a = Float.Array.create 4096; n = 0 }

  let add c x =
    if c.n = Float.Array.length c.a then begin
      let b = Float.Array.create (2 * c.n) in
      Float.Array.blit c.a 0 b 0 c.n;
      c.a <- b
    end;
    Float.Array.set c.a c.n x;
    c.n <- c.n + 1
end

let sample_cap = 200_000

(* What the capture pass records at every packet arrival. *)
type capture = {
  mutable receives : int;
  lfib_node : Col.t;  (* labelled arrival: node, stack, visible dst *)
  lfib_depth : Col.t;
  lfib_stack : Col.t;  (* Packet.max_depth slots per sample *)
  lfib_dst : Col.t;
  fib_node : Col.t;  (* unlabelled IP hop: node, dst *)
  fib_dst : Col.t;
  vrf_pe : Col.t;  (* PE ingress from a CE: pe, vpn, dst *)
  vrf_vpn : Col.t;
  vrf_dst : Col.t;
  q_link : Col.t;  (* arrival over a core link: link, band, bytes *)
  q_band : Col.t;
  q_size : Col.t;
  times : Fcol.t;  (* executed event times, in order *)
  mutable pending : int list;  (* queue depth, sampled *)
}

let capture () =
  let c () = Col.create sample_cap in
  { receives = 0; lfib_node = c (); lfib_depth = c ();
    lfib_stack = Col.create (sample_cap * Packet.max_depth); lfib_dst = c ();
    fib_node = c (); fib_dst = c (); vrf_pe = c (); vrf_vpn = c ();
    vrf_dst = c (); q_link = c (); q_band = c (); q_size = c ();
    times = Fcol.create (); pending = [] }

(* Pass-through interceptors: record, then [Continue], so forwarding is
   untouched (the fingerprint check proves it). *)
let instrument cap sc =
  let net = Scenario.network sc in
  let topo = Network.topology net in
  let policy = Network.policy net in
  let core = Hashtbl.create 64 in
  List.iter
    (fun id ->
       let l = Topology.link topo id in
       Hashtbl.replace core (l.Topology.src, l.Topology.dst) id)
    (Scenario.core_link_ids sc);
  let ce_site = Hashtbl.create 64 in
  Array.iter
    (fun (s : Site.t) -> Hashtbl.replace ce_site s.Site.ce_node s)
    (Scenario.sites sc);
  for node = 0 to Topology.node_count topo - 1 do
    Network.add_interceptor net node (fun ~from p ->
        cap.receives <- cap.receives + 1;
        let dst = Ipv4.to_int (Packet.visible_header p).Packet.dst in
        (match from with
         | Some y -> (
             match Hashtbl.find_opt core (y, node) with
             | Some id ->
               Col.add cap.q_link id;
               Col.add cap.q_band (Qos_mapping.classify policy p);
               Col.add cap.q_size p.Packet.size
             | None -> ())
         | None -> ());
        if Packet.labelled p then begin
          if cap.lfib_node.Col.n < sample_cap then begin
            Col.add cap.lfib_node node;
            Col.add cap.lfib_depth p.Packet.depth;
            for i = 0 to Packet.max_depth - 1 do
              Col.add cap.lfib_stack
                (if i < p.Packet.depth then p.Packet.stack.(i) else 0)
            done;
            Col.add cap.lfib_dst dst
          end
        end
        else begin
          match Option.bind from (Hashtbl.find_opt ce_site) with
          | Some s when s.Site.pe_node = node ->
            Col.add cap.vrf_pe node;
            Col.add cap.vrf_vpn s.Site.vpn;
            Col.add cap.vrf_dst dst
          | _ ->
            Col.add cap.fib_node node;
            Col.add cap.fib_dst dst
        end;
        Mvpn_core.Dataplane.Continue)
  done

(* Step the engine to the horizon, recording each event's time. *)
let drive_steps cap a =
  let e = Simwl.engine a and h = Simwl.horizon a.Simwl.sp in
  let rec loop i =
    match Engine.peek_time e with
    | Some t when t <= h ->
      ignore (Engine.step e);
      Fcol.add cap.times (Engine.now e);
      if i land 1023 = 0 then cap.pending <- Engine.pending e :: cap.pending;
      loop (i + 1)
    | _ -> ()
  in
  loop 0

(* Median ns per call over [rounds] timed repetitions of [body], which
   makes [calls] calls; [reset] (untimed) restores its inputs. *)
let time_ns ?(rounds = 7) ?(reset = ignore) ~calls body =
  if calls = 0 then 0.0
  else
    Stat.median
      (List.init rounds (fun _ ->
           reset ();
           let t0 = Stat.now_ns () in
           body ();
           float_of_int (Stat.now_ns () - t0) /. float_of_int calls))

let flow = Mvpn_net.Flow.make (Ipv4.of_int32_exn 0x0A000001) (Ipv4.of_int32_exn 0x0A010001)

let fresh_packet ?(size = 512) () = Packet.make ~size ~now:0.0 flow

(* Isolated Lfib.step_packed on the captured label stacks, each at the
   node it arrived at; and, on the same hops, an uncached Fib.lookup of
   the packet's visible destination (C2: label swap vs LPM). *)
let replay_lfib cap net =
  let n = cap.lfib_node.Col.n in
  let plane = Network.plane net in
  let lfibs = Array.init n (fun i -> Plane.lfib plane cap.lfib_node.Col.a.(i)) in
  let pkts = Array.init n (fun _ -> fresh_packet ()) in
  let reset () =
    for i = 0 to n - 1 do
      let p = pkts.(i) in
      Array.blit cap.lfib_stack.Col.a (i * Packet.max_depth) p.Packet.stack 0
        Packet.max_depth;
      p.Packet.depth <- cap.lfib_depth.Col.a.(i)
    done
  in
  let step_ns =
    Spans.with_span "replay.lfib" (fun () ->
        time_ns ~reset ~calls:n (fun () ->
            for i = 0 to n - 1 do
              ignore (Sys.opaque_identity (Lfib.step_packed lfibs.(i) pkts.(i)))
            done))
  in
  let fibs = Array.init n (fun i -> Network.fib net cap.lfib_node.Col.a.(i)) in
  let dsts = Array.init n (fun i -> Ipv4.of_int32_exn cap.lfib_dst.Col.a.(i)) in
  let same_ns =
    Spans.with_span "replay.fib_same_hops" (fun () ->
        time_ns ~calls:n (fun () ->
            for i = 0 to n - 1 do
              ignore (Sys.opaque_identity (Fib.lookup fibs.(i) dsts.(i)))
            done))
  in
  seti "mpls.lfib_replayed" n;
  set "mpls.lfib_step_ns" step_ns;
  set "net.fib_same_hops_ns" same_ns

let replay_fib cap net =
  let n = cap.fib_node.Col.n in
  let fibs = Array.init n (fun i -> Network.fib net cap.fib_node.Col.a.(i)) in
  let dsts = Array.init n (fun i -> Ipv4.of_int32_exn cap.fib_dst.Col.a.(i)) in
  set "net.fib_lookup_ns"
    (Spans.with_span "replay.fib" (fun () ->
         time_ns ~calls:n (fun () ->
             for i = 0 to n - 1 do
               ignore (Sys.opaque_identity (Fib.lookup fibs.(i) dsts.(i)))
             done)))

let replay_vrf cap sc =
  let mv = Option.get (Scenario.mpls sc) in
  let n = cap.vrf_pe.Col.n in
  let vrfs =
    Array.init n (fun i ->
        Mvpn_core.Mpls_vpn.vrf mv ~pe:cap.vrf_pe.Col.a.(i)
          ~vpn:cap.vrf_vpn.Col.a.(i))
  in
  let live = List.filter (fun i -> vrfs.(i) <> None) (List.init n Fun.id) in
  let vs = Array.of_list (List.map (fun i -> Option.get vrfs.(i)) live) in
  let ds =
    Array.of_list
      (List.map (fun i -> Ipv4.of_int32_exn cap.vrf_dst.Col.a.(i)) live)
  in
  let m = Array.length vs in
  set "core.vrf_lookup_ns"
    (Spans.with_span "replay.vrf" (fun () ->
         time_ns ~calls:m (fun () ->
             for i = 0 to m - 1 do
               ignore (Sys.opaque_identity (Vrf.lookup vs.(i) ds.(i)))
             done)))

(* Each core port's captured (band, size) sequence through a fresh
   discipline of the deployment's policy: 32 enqueues, then dequeues
   until empty, timed separately. *)
let replay_qdisc cap net ~seed =
  let policy = Network.policy net in
  let by_link = Hashtbl.create 64 in
  for i = cap.q_link.Col.n - 1 downto 0 do
    let l = cap.q_link.Col.a.(i) in
    let prev = Option.value ~default:[] (Hashtbl.find_opt by_link l) in
    Hashtbl.replace by_link l ((cap.q_band.Col.a.(i), cap.q_size.Col.a.(i)) :: prev)
  done;
  let enq = ref 0 and deq = ref 0 and ne = ref 0 and nd = ref 0 in
  Spans.with_span "replay.qdisc" (fun () ->
      Hashtbl.iter
        (fun _ seq ->
           let items =
             Array.of_list
               (List.map (fun (b, s) -> (b, fresh_packet ~size:s ())) seq)
           in
           let q = Qos_mapping.make_qdisc ~rng:(Mvpn_sim.Rng.create seed) policy in
           let len = Array.length items in
           let i = ref 0 in
           while !i < len do
             let hi = min len (!i + 32) in
             let t0 = Stat.now_ns () in
             for j = !i to hi - 1 do
               let b, p = items.(j) in
               ignore (Sys.opaque_identity (Queue_disc.enqueue q ~cls:b p))
             done;
             let t1 = Stat.now_ns () in
             let k = ref 0 in
             while Queue_disc.dequeue_null q != Packet.null do incr k done;
             let t2 = Stat.now_ns () in
             enq := !enq + (t1 - t0);
             deq := !deq + (t2 - t1);
             ne := !ne + (hi - !i);
             nd := !nd + !k + 1;
             i := hi
           done)
        by_link);
  seti "qos.replayed" !ne;
  set "qos.enqueue_ns" (Stat.ratio !enq !ne);
  set "qos.dequeue_ns" (Stat.ratio !deq !nd)

(* Isolated Slo.observe_* over the captured fate stream, into a fresh
   engine each round (its few declarations are noise beside 10^5
   observations). *)
let replay_slo (a : Simwl.armed) =
  let fates = a.Simwl.fates in
  set "telemetry.slo_observe_ns"
    (Spans.with_span "replay.slo" (fun () ->
         time_ns ~rounds:3 ~calls:fates.Simwl.Fates.n (fun () ->
             Simwl.Fates.iter fates (Simwl.observe (Simwl.fresh_slo a.Simwl.sc)))))

(* The recorded event-time stream through a fresh engine with no-op
   thunks, keeping the run's typical queue depth pending: each event
   schedules the one [window] places later in the stream. *)
let replay_queue cap =
  let n = cap.times.Fcol.n and times = cap.times.Fcol.a in
  let window = max 1 (int_of_float (Stat.median (List.map float_of_int cap.pending))) in
  seti "sim.queue_window" window;
  set "sim.queue_ns"
    (Spans.with_span "replay.queue" (fun () ->
         Stat.median
           (List.init 3 (fun _ ->
                let e = Engine.create () in
                let next = ref 0 in
                let rec thunk () =
                  if !next < n then begin
                    Engine.schedule_at e ~time:(Float.Array.get times !next) thunk;
                    incr next
                  end
                in
                for _ = 1 to min window n do thunk () done;
                let t0 = Stat.now_ns () in
                Engine.run e;
                float_of_int (Stat.now_ns () - t0) /. float_of_int (max 1 n)))))

(* Registry counter growth since [base]. *)
let counter_diff base name =
  T.Registry.snapshot_counter (T.Registry.snapshot ()) name
  - T.Registry.snapshot_counter base name

(* The dataplane cache ratios with their bases, uncached FIB lookups
   and LFIB steps, as counted since [base]; returns the LFIB steps. *)
let dataplane_counts base =
  let diff = counter_diff base in
  List.iter
    (fun c ->
       let h = diff (c ^ ".cache.hit") and m = diff (c ^ ".cache.miss") in
       set ("core." ^ c ^ "_cache_hit") (Stat.ratio h (h + m));
       seti ("core." ^ c ^ "_cache_lookups") (h + m))
    [ "fib"; "ftn"; "vrf" ];
  seti "net.fib_lookups" (diff "fib.cache.miss");
  let steps =
    List.fold_left (fun acc c -> acc + diff ("lfib." ^ c)) 0
      [ "swap"; "pop"; "pop_and_ip"; "no_binding"; "ttl_expired" ]
  in
  seti "mpls.lfib_steps" steps;
  steps

(* One sequential pass; returns the armed replica, its fingerprint and
   the CPU seconds of its engine run and of its whole timed phase. *)
let seq_pass ?plan ?audit ?instrument ?drive sp =
  Gc.full_major ();
  let a = Simwl.setup ?plan ?audit ?instrument sp in
  let c0 = Stat.cpu () in
  Simwl.run_engine ?drive a;
  let engine_cpu = Stat.cpu () -. c0 in
  let fp = Simwl.finish a in
  (a, Simwl.fp_to_string fp, fp, engine_cpu, Stat.cpu () -. c0)

let sim ~kind ~tiny ~seed =
  let sp = Simwl.spec ~kind ~tiny ~seed in
  let plan =
    match kind with
    | Simwl.Chaos_soak -> Some (Simwl.storm_plan sp)
    | Simwl.Steady -> None
  in
  let alloc0 = Packet.allocated () in
  (* Untraced reference: counters, port state and the CPU baseline. *)
  let u, ufp, f, u_engine, u_cpu = seq_pass ?plan sp in
  let net = Simwl.network u in
  seti "net.pkts_allocated" (Packet.allocated () - alloc0);
  seti "net.pool_size" (Packet.pool_size ());
  seti "sim.events" f.Simwl.events;
  seti "sim.scheduled" f.Simwl.scheduled;
  set "sim.cpu_ns_per_event" (u_engine *. 1e9 /. float_of_int f.Simwl.events);
  set "bench.untraced_run_cpu_s" u_cpu;
  let lfib_steps = dataplane_counts u.Simwl.base in
  seti "core.recompiles" (Mvpn_core.Dataplane.recompiles (Network.dataplane net));
  let offered = ref 0 and qdrops = ref 0 in
  Network.iter_ports net (fun ~link_id:_ p ->
      let c = Port.counters p in
      offered := !offered + c.Port.offered;
      qdrops := !qdrops + c.Port.dropped_queue);
  seti "qos.port_offered" !offered;
  seti "qos.queue_drops" !qdrops;
  set "qos.max_core_util" (Scenario.max_core_utilization u.Simwl.sc);
  seti "telemetry.fates" u.Simwl.fates.Simwl.Fates.n;
  seti "resilience.audit_ticks" (Simwl.audit_ticks u);
  seti "resilience.audit_violations" (Simwl.audit_violations u);
  let diff = counter_diff u.Simwl.base in
  seti "resilience.faults" (diff "resilience.chaos.faults");
  seti "resilience.frr_switched" (diff "resilience.frr.switched");
  seti "resilience.resignal" (diff "resilience.recovery.resignal");
  Checks.check "zero audit violations" (Simwl.audit_violations u = 0);
  (* Traced pass 1: the engine's dispatch-cost ledger. Enabled before
     the workload is armed, so its initial schedules are counted. *)
  Spans.enable ();
  let prof = ref None in
  let _, pfp, _, _, p_cpu =
    seq_pass ?plan sp ~instrument:(fun sc ->
        let pr = Engine.profiler (Scenario.engine sc) in
        Profile.enable pr;
        prof := Some pr)
  in
  let pr = Option.get !prof in
  let ev = float_of_int (max 1 (Profile.events pr)) in
  let per s = s *. 1e9 /. ev in
  set "sim.pop_ns" (per (Profile.pop_seconds pr));
  set "sim.handler_ns" (per (Profile.handler_seconds pr));
  set "sim.flush_ns" (per (Profile.flush_seconds pr));
  set "sim.ledger_ns"
    (per (Profile.pop_seconds pr +. Profile.handler_seconds pr
          +. Profile.flush_seconds pr));
  let kinds = Profile.kind_names () in
  let kc name =
    match List.assoc_opt name kinds with
    | Some k -> Profile.kind_count pr k
    | None -> 0
  in
  let tx = kc "port.tx" and prop = kc "port.propagate" and src = kc "traffic.src" in
  seti "sim.kind.port_tx" tx;
  seti "sim.kind.port_propagate" prop;
  seti "sim.kind.traffic_src" src;
  (* Timers (audit ticks, storm and recovery events) are the scheduled
     events no data-plane kind claims. *)
  seti "sim.kind.timer" (f.Simwl.scheduled - tx - prop - src);
  set "bench.traced_run_cpu_s" p_cpu;
  set "bench.trace_overhead_s" (p_cpu -. u_cpu);
  (* Traced pass 2: captures at every arrival, and the event-time
     stream from stepping the engine. *)
  let cap = capture () in
  let ca, cfp, _, _, _ =
    seq_pass ?plan sp ~instrument:(instrument cap) ~drive:(drive_steps cap)
  in
  set "core.hops_per_pkt"
    (Stat.ratio cap.receives (Network.flow_totals (Simwl.network ca)).Network.injected);
  let matches = pfp = ufp && cfp = ufp in
  Checks.check "traced passes reproduce the untraced fingerprint" matches;
  set "bench.traced_fp_match" (if matches then 1.0 else 0.0);
  (* Isolated replays, on the capture pass's tables. *)
  let cnet = Simwl.network ca in
  replay_lfib cap cnet;
  replay_fib cap cnet;
  replay_vrf cap ca.Simwl.sc;
  replay_qdisc cap cnet ~seed;
  replay_slo ca;
  replay_queue cap;
  (* Same-process audit cost (chaos): unaudited and audited passes
     alternated, best of two each, CPU difference per tick. *)
  (match kind with
   | Simwl.Chaos_soak ->
     let cpu audit =
       let _, _, _, _, c = seq_pass ?plan ~audit sp in
       c
     in
     let off1 = cpu false in
     let on1 = cpu true in
     let off2 = cpu false in
     let on2 = cpu true in
     set "resilience.audit_us_per_tick"
       ((Float.min on1 on2 -. Float.min off1 off2)
        *. 1e6 /. float_of_int (max 1 (Simwl.audit_ticks u)))
   | Simwl.Steady -> ());
  (* The Network/Port/closure residual: handler time minus the isolated
     layer costs weighted by their in-situ calls per event. A live SLO
     engine is attached only under chaos. *)
  let fevents = float_of_int (max 1 f.Simwl.events) in
  let live_slo =
    match kind with Simwl.Chaos_soak -> get "telemetry.fates" | Simwl.Steady -> 0.0
  in
  let weighted =
    (float_of_int lfib_steps *. get "mpls.lfib_step_ns"
     +. get "net.fib_lookups" *. get "net.fib_lookup_ns"
     +. get "core.vrf_cache_lookups" *. get "core.vrf_lookup_ns"
     +. float_of_int !offered *. get "qos.enqueue_ns"
     +. float_of_int (!offered - !qdrops) *. get "qos.dequeue_ns"
     +. live_slo *. get "telemetry.slo_observe_ns")
    /. fevents
  in
  let shell = get "sim.handler_ns" -. weighted in
  set "core.shell_ns" shell;
  set "core.shell_negative" (if shell < 0.0 then 1.0 else 0.0)

let k2 ~tiny ~seed =
  let sp = Simwl.spec ~kind:Simwl.Steady ~tiny ~seed in
  let steady_fp = Simwl.steady_reference sp in
  let run () =
    let c0 = Stat.cpu () and w0 = Stat.wall () in
    let o = Runner.run_parallel (Simwl.k2_config sp) in
    (o, Stat.cpu () -. c0, Stat.wall () -. w0)
  in
  let o, u_cpu, _ = run () in
  let base = T.Registry.snapshot () in
  Spans.enable ();
  let ot, t_cpu, t_wall =
    Spans.with_span "Runner.run_parallel" run
  in
  let fp o = Simwl.fp_to_string (Simwl.of_outcome o) in
  Checks.check "K=2 fingerprint equals backbone_steady's" (fp o = steady_fp);
  let matches = fp ot = fp o in
  Checks.check "traced K=2 run reproduces the untraced fingerprint" matches;
  set "bench.traced_fp_match" (if matches then 1.0 else 0.0);
  set "bench.untraced_run_cpu_s" u_cpu;
  set "bench.traced_run_cpu_s" t_cpu;
  set "bench.trace_overhead_s" (t_cpu -. u_cpu);
  ignore (dataplane_counts base);
  seti "sim.events" ot.Runner.events;
  seti "sim.scheduled" ot.Runner.scheduled;
  seti "par.shards" ot.Runner.shards;
  seti "par.exchanged" ot.Runner.exchanged;
  seti "par.cut_links" ot.Runner.cut_links;
  seti "par.leftover" ot.Runner.leftover;
  seti "par.overflow" ot.Runner.overflow;
  let sizes = Array.map float_of_int ot.Runner.sizes in
  let mean = Array.fold_left ( +. ) 0.0 sizes /. float_of_int (Array.length sizes) in
  set "par.imbalance" (Array.fold_left Float.max 0.0 sizes /. mean);
  set "par.cpu_over_wall" (t_cpu /. t_wall)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let provision ~tiny ~seed =
  let sp = Provwl.spec ~tiny ~seed in
  let inp = Provwl.inputs sp in
  let cpu f =
    let c0 = Stat.cpu () in
    let r = f () in
    (r, Stat.cpu () -. c0)
  in
  let u, u_cpu = cpu (fun () -> Provwl.run ~calibrate:false inp) in
  Checks.check "incremental state equals the oracle" u.Provwl.oracle_equal;
  Spans.enable ();
  let t, t_cpu = cpu (fun () -> Provwl.run ~calibrate:false inp) in
  let matches = t.Provwl.fingerprint = u.Provwl.fingerprint in
  Checks.check "traced pass reproduces the untraced fingerprint" matches;
  set "bench.traced_fp_match" (if matches then 1.0 else 0.0);
  set "bench.untraced_run_cpu_s" u_cpu;
  set "bench.traced_run_cpu_s" t_cpu;
  set "bench.trace_overhead_s" (t_cpu -. u_cpu);
  let ops = List.length u.Provwl.delta_ms in
  set "provision.compile_s" u.Provwl.compile_wall;
  set "provision.delta_p50_ms" (Stat.percentile u.Provwl.delta_ms 0.50);
  set "provision.delta_p99_ms" (Stat.percentile u.Provwl.delta_ms 0.99);
  seti "provision.delta_ops" ops;
  set "provision.touched_vrfs_mean" (Stat.ratio u.Provwl.touched ops);
  set "provision.oracle_s" u.Provwl.oracle_wall;
  seti "provision.routes" u.Provwl.routes;
  (* Resident bytes per route: the live-word delta across a compile. *)
  let w0 = live_words () in
  let state = Spans.with_span "compile" (fun () -> P.Compile.compile inp.Provwl.portfolio) in
  let w1 = live_words () in
  set "provision.bytes_per_route"
    (float_of_int ((w1 - w0) * (Sys.word_size / 8))
     /. float_of_int (max 1 u.Provwl.routes));
  (* A fresh MP-BGP fed the compiled exported routes; its run timed. *)
  let bgp = Mvpn_routing.Mpbgp.create () in
  for pe = 0 to P.Compile.pe_count state - 1 do
    Mvpn_routing.Mpbgp.add_pe bgp pe
  done;
  Mvpn_routing.Mpbgp.iter_exported (P.Compile.mpbgp state) (fun _ r ->
      Mvpn_routing.Mpbgp.export_route bgp r);
  let c0 = Stat.cpu () in
  ignore (Spans.with_span "Mpbgp.run" (fun () -> Mvpn_routing.Mpbgp.run bgp));
  set "routing.mpbgp_run_s" (Stat.cpu () -. c0);
  seti "routing.messages" (Mvpn_routing.Mpbgp.messages_sent bgp);
  seti "routing.store_size" (Mvpn_routing.Mpbgp.store_size bgp)

let run ~workload ~tiny ~seed =
  (match workload with
   | "backbone_steady" -> sim ~kind:Simwl.Steady ~tiny ~seed
   | "soak_chaos" -> sim ~kind:Simwl.Chaos_soak ~tiny ~seed
   | "backbone_k2" -> k2 ~tiny ~seed
   | "provision_10k" -> provision ~tiny ~seed
   | w -> invalid_arg ("unknown workload " ^ w));
  seti "bench.spans" (Spans.count ());
  let path =
    Printf.sprintf "_build/perfbench/spans-%s-%d.json" workload seed
  in
  Spans.write path;
  Printf.printf "%s per-layer metrics (spans: %s)\n" workload path;
  List.iter
    (fun (n, u) -> Printf.printf "  %-30s %-6s %.6g\n" n u (get n))
    catalog;
  List.iter
    (fun (n, s) -> Printf.printf "  span self time %-22s %.4f s\n" n s)
    (Spans.self_seconds ());
  if workload = "backbone_steady" || workload = "soak_chaos" then begin
    let l = get "mpls.lfib_step_ns" and f = get "net.fib_same_hops_ns" in
    Printf.printf
      "C2 in situ vs isolated: Lfib.step_packed %.1f ns vs Fib.lookup %.1f ns \
       on the same %d labelled hops (%.1f ns on the IP hops): label swap %s \
       LPM on this traffic mix.\n"
      l f (int_of_float (get "mpls.lfib_replayed")) (get "net.fib_lookup_ns")
      (if l < f then "beats" else "does not beat");
    if get "core.shell_negative" = 1.0 then
      print_endline
        "WARNING: isolated layer costs weighted by call counts exceed \
         sim.handler_ns; core.shell_ns is negative and the isolated numbers \
         mislead."
  end;
  List.map (fun (n, u) -> (n, get n, u)) catalog
