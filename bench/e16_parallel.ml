(* E16 — partitioned parallel runner: the multi-region backbone split
   across OCaml 5 domains, sequential baseline vs K = 2 / 4 / 8 shards
   (ARCHITECTURE.md "Parallel runner").

   Every run — sequential and each shard count — must land on the same
   fingerprint: delivered / dropped / executed / scheduled totals,
   per-class sent/received sums, and the replayed SLO verdict. The
   bench aborts loudly if any shard count diverges; determinism is the
   headline invariant, the speedup is the bonus.

   Rates are delivered packets per wall-clock second, so the speedup
   gauges are honest: on a single-core container every K runs the same
   work through one core plus synchronization overhead and the speedup
   sits at or below 1; on an N-core machine the shards run
   concurrently and the same gauges climb with the core count. *)

open Mvpn_par
module T = Mvpn_telemetry

let cfg k =
  { Runner.default_config with
    Runner.shards = k; pops = 16; vpns = 4; sites_per_vpn = 8;
    load = 0.9; duration = 40.0; seed = 11 }

type sample = {
  tag : string;
  outcome : Runner.outcome;
  wall : float;  (* seconds *)
  cpu : float;  (* process CPU seconds *)
  minor_w : float;
      (* minor-heap words allocated across the run by every domain it
         ran on (see [minor_words]) *)
}

let fingerprint (o : Runner.outcome) =
  ( o.Runner.delivered, o.Runner.dropped, o.Runner.events,
    o.Runner.scheduled, o.Runner.classes,
    T.Slo.in_budget o.Runner.slo, T.Slo.violation_count o.Runner.slo )

(* Minor words allocated so far by this domain and every joined one.
   [Gc.quick_stat] folds in joined shard domains (unlike
   [Gc.minor_words], which counts this domain only) but sees this
   domain's own words only up to its last minor collection, so the
   [Gc.minor] first makes it exact. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let timed tag c run =
  let t0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  let w0 = minor_words () in
  let outcome = run c in
  let minor_w = minor_words () -. w0 in
  let wall = Unix.gettimeofday () -. t0 and cpu = Sys.time () -. c0 in
  (* The rounds keep every sample; a replica kept with it would hold
     a whole scenario live while the later rounds are timed, and no row
     reads one. *)
  { tag; outcome = { outcome with Runner.replicas = [||] }; wall; cpu;
    minor_w }

let timed_par k =
  timed (Printf.sprintf "K=%d" k) (cfg k) Runner.run_parallel

let check_fingerprint ~baseline s =
  if fingerprint s.outcome <> fingerprint baseline.outcome then begin
    Printf.eprintf
      "E16: FINGERPRINT MISMATCH %s vs %s\n\
      \  %s: delivered=%d dropped=%d events=%d scheduled=%d\n\
      \  %s: delivered=%d dropped=%d events=%d scheduled=%d\n"
      s.tag baseline.tag baseline.tag baseline.outcome.Runner.delivered
      baseline.outcome.Runner.dropped baseline.outcome.Runner.events
      baseline.outcome.Runner.scheduled s.tag s.outcome.Runner.delivered
      s.outcome.Runner.dropped s.outcome.Runner.events
      s.outcome.Runner.scheduled;
    failwith "E16: parallel run diverged from the sequential baseline"
  end

let rate s = float_of_int s.outcome.Runner.delivered /. Float.max 1e-9 s.wall

let words_per_event s =
  s.minor_w /. float_of_int (max 1 s.outcome.Runner.events)

(* Interleaved race rounds of the heap, calendar and sampler-armed
   runs. The report rows and the rate gauges come from the first
   round. *)
let rounds = 5

type round = { heap : sample; cal : sample; tl : sample }

let median xs =
  let s = Mvpn_sim.Stats.Samples.create () in
  List.iter (Mvpn_sim.Stats.Samples.add s) xs;
  Mvpn_sim.Stats.Samples.median s

let run () =
  let c = cfg 1 in
  Tables.heading
    (Printf.sprintf
       "E16: partitioned parallel runner (%d POPs, %d VPNs x %d sites, \
        %.0fs, seed %d) — seq vs K=2/4/8 (%d cores)"
       c.Runner.pops c.Runner.vpns c.Runner.sites_per_vpn
       c.Runner.duration c.Runner.seed (Domain.recommended_domain_count ()));
  let widths = [6; 7; 5; 10; 9; 9; 10; 9; 8; 8; 9; 6] in
  Tables.row widths
    [ "run"; "shards"; "cut"; "delivered"; "dropped"; "events";
      "exchanged"; "wall"; "pps"; "speedup"; "alloc_mw"; "w/ev" ];
  Tables.rule widths;
  (* Same process, interleaved: the heap oracle, the calendar-queue fast
     path and the calendar run with the default-interval timeline
     sampler armed, [rounds] times, the order flipping every round so
     no run always goes warm. Each round's ratios are of CPU seconds,
     which other work on the host disturbs far less than wall clock;
     the median round is the published race result. Every heap and
     calendar run's fingerprint must match, which proves the calendar
     executes the exact heap schedule. Sampler ticks are engine
     events, so the sampled run's full fingerprint is not comparable,
     but its traffic totals must not move. *)
  let seq_run tag c = timed tag c Runner.run_sequential in
  let backend tag backend = seq_run tag { (cfg 1) with Runner.backend } in
  let heap () = backend "seq-heap" Mvpn_sim.Engine.Binary_heap in
  let cal () = backend "seq-cal" Mvpn_sim.Engine.Calendar in
  let tl () =
    seq_run "seq-tl"
      { (cfg 1) with
        Runner.sample_interval = Some Mvpn_core.Sampler.default_interval }
  in
  let all =
    List.init rounds (fun i ->
        if i mod 2 = 0 then
          let heap = heap () in
          let cal = cal () in
          { heap; cal; tl = tl () }
        else
          let tl = tl () in
          let cal = cal () in
          { heap = heap (); cal; tl })
  in
  let { heap = seq_heap; cal = seq; tl = seq_tl } = List.hd all in
  List.iter
    (fun r ->
       check_fingerprint ~baseline:seq r.heap;
       check_fingerprint ~baseline:seq r.cal;
       if
         r.tl.outcome.Runner.delivered <> seq.outcome.Runner.delivered
         || r.tl.outcome.Runner.dropped <> seq.outcome.Runner.dropped
       then failwith "E16: arming the timeline sampler changed traffic totals")
    all;
  let cpu_ratio a b = a.cpu /. Float.max 1e-9 b.cpu in
  let heap_over_cal = median (List.map (fun r -> cpu_ratio r.heap r.cal) all) in
  let cal_over_sampler =
    median (List.map (fun r -> cpu_ratio r.cal r.tl) all)
  in
  let seq_rate = rate seq in
  let report s =
    Tables.row widths
      [ s.tag; string_of_int s.outcome.Runner.shards;
        string_of_int s.outcome.Runner.cut_links;
        string_of_int s.outcome.Runner.delivered;
        string_of_int s.outcome.Runner.dropped;
        string_of_int s.outcome.Runner.events;
        string_of_int s.outcome.Runner.exchanged;
        Printf.sprintf "%.2f s" s.wall;
        Printf.sprintf "%.0f" (rate s);
        Printf.sprintf "%.2fx" (rate s /. seq_rate);
        Printf.sprintf "%.1f" (s.minor_w /. 1e6);
        Printf.sprintf "%.1f" (words_per_event s) ]
  in
  report seq_heap;
  report seq;
  T.Gauge.set (T.Registry.gauge "e16.rate.seq_heap_pps") (rate seq_heap);
  T.Gauge.set (T.Registry.gauge "e16.rate.seq_calendar_pps") seq_rate;
  T.Gauge.set (T.Registry.gauge "e16.rate.seq_pps") seq_rate;
  T.Gauge.set (T.Registry.gauge "e16.ratio.heap_over_cal_cpu") heap_over_cal;
  (* Minor-heap words per executed event across the whole sequential
     calendar run — build, arming, the event loop and replay. The flat
     packet representation's headline allocation metric; check.sh gates
     it at <= 24 words/event. *)
  T.Gauge.set
    (T.Registry.gauge "sim.gc.minor_words_per_event")
    (words_per_event seq);
  (* The same figure through the heap backend, whose push_at/pop_due
     cycle allocates nothing either; check.sh gates it. *)
  T.Gauge.set
    (T.Registry.gauge "e16.gc.heap_minor_words_per_event")
    (words_per_event seq_heap);
  (* Observability overhead: each round's sampler-armed run against
     that round's calendar run. check.sh gates the median CPU-time
     ratio at >= 0.95: sampling may cost at most ~5 %. *)
  report seq_tl;
  T.Gauge.set (T.Registry.gauge "e16.rate.seq_sampler_pps") (rate seq_tl);
  T.Gauge.set (T.Registry.gauge "e16.overhead.sampler")
    (rate seq_tl /. seq_rate);
  T.Gauge.set
    (T.Registry.gauge "e16.ratio.cal_over_sampler_cpu")
    cal_over_sampler;
  (* Dispatch-cost ledger: the same run again with the engine profiler
     on, which run_sequential then publishes as the sim.profile.*
     gauges — the pop / handler / flush wall-time split and per-kind
     dispatch counts check.sh asserts on. Profiling never touches the
     schedule, so the full fingerprint must hold. *)
  let profile sc =
    Mvpn_sim.Profile.enable
      (Mvpn_sim.Engine.profiler (Mvpn_core.Scenario.engine sc))
  in
  let seq_prof =
    seq_run "seq-prof" { (cfg 1) with Runner.prepare_replica = profile }
  in
  check_fingerprint ~baseline:seq seq_prof;
  report seq_prof;
  T.Gauge.set (T.Registry.gauge "e16.rate.seq_profiled_pps")
    (rate seq_prof);
  List.iter
    (fun k ->
       let s = timed_par k in
       check_fingerprint ~baseline:seq s;
       report s;
       let r = rate s in
       T.Gauge.set
         (T.Registry.gauge (Printf.sprintf "e16.rate.k%d_pps" k)) r;
       T.Gauge.set
         (T.Registry.gauge (Printf.sprintf "e16.speedup.k%d" k))
         (r /. seq_rate);
       (* The same words-per-event figure across both shard domains:
          what the cut-link data path (exchange, import ring, window
          loop) adds over the sequential run. check.sh gates it. *)
       if k = 2 then
         T.Gauge.set
           (T.Registry.gauge "e16.gc.k2_minor_words_per_event")
           (words_per_event s))
    [ 2; 4; 8 ];
  Tables.note
    "\nCPU seconds, median of %d interleaved rounds: seq-heap / seq-cal \
     %.3f, seq-cal / seq-tl %.3f"
    rounds heap_over_cal cal_over_sampler;
  Tables.note
    "\nEvery row carries the same fingerprint — delivered, dropped,\n\
     executed and scheduled events, per-class sums and the SLO verdict\n\
     are byte-identical from the seq-heap oracle through K=8 (the\n\
     bench aborts on any divergence). seq-heap and seq-cal run the\n\
     same schedule through the binary-heap oracle and the\n\
     calendar-queue fast path in one process, in interleaved rounds\n\
     with seq-tl (the first round is shown); the line above gives\n\
     each ratio's median round. Shards exchange cut-link packets through\n\
     bounded channels and advance under conservative lookahead\n\
     windows, so the schedule each shard executes is the sequential\n\
     schedule projected onto its nodes. The pps and speedup columns\n\
     are wall-clock delivered-packet rates: bounded by the machine's\n\
     core count, at or below 1x on a single core (synchronization is\n\
     pure overhead there), scaling with cores on real multicore\n\
     hosts. alloc_mw / w/ev are minor-heap words (millions, and per\n\
     executed event) allocated by the run, shard domains included —\n\
     the flat packet representation keeps the per-event figure in\n\
     single digits; a sharded run adds its extra replica builds and\n\
     the fresh packets an exporting shard allocates (packet pools\n\
     are per domain), not per-crossing garbage. seq-tl re-runs the\n\
     sequential baseline with the 1 Hz timeline sampler armed (same\n\
     traffic totals, bounded-ring series, its speed in CPU time gated\n\
     at >= 0.95x seq-cal's) and seq-prof with the dispatch-cost ledger on\n\
     (identical fingerprint; publishes the sim.profile.* split)."
