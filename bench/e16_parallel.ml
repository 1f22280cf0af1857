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
  { tag; outcome; wall = Unix.gettimeofday () -. t0;
    cpu = Sys.time () -. c0; minor_w }

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

(* Interleaved heap/calendar race pairs. The report rows and the rate
   gauges come from the first pair. *)
let backend_pairs = 5

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
  (* Same process, interleaved: the heap oracle vs the calendar-queue
     fast path, [backend_pairs] times, the order flipping every pair so
     neither backend always runs warm. Each pair's ratio is of CPU
     seconds, which other work on the host disturbs far less than wall
     clock; the median pair is the published race result. Every run's
     fingerprint must match, which proves the calendar executes the
     exact heap schedule. *)
  let run_backend tag backend =
    timed tag { (cfg 1) with Runner.backend } Runner.run_sequential
  in
  let heap () = run_backend "seq-heap" Mvpn_sim.Engine.Binary_heap in
  let cal () = run_backend "seq-cal" Mvpn_sim.Engine.Calendar in
  let pairs =
    List.init backend_pairs (fun i ->
        if i mod 2 = 0 then
          let h = heap () in
          (h, cal ())
        else
          let c = cal () in
          (heap (), c))
  in
  let seq_heap, seq = List.hd pairs in
  List.iter
    (fun (h, c) ->
       check_fingerprint ~baseline:seq h;
       check_fingerprint ~baseline:seq c)
    pairs;
  let heap_over_cal =
    let ratios = Mvpn_sim.Stats.Samples.create () in
    List.iter
      (fun (h, c) ->
         Mvpn_sim.Stats.Samples.add ratios (h.cpu /. Float.max 1e-9 c.cpu))
      pairs;
    Mvpn_sim.Stats.Samples.median ratios
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
  (* Observability overhead: the identical sequential calendar run with
     the default-interval timeline sampler armed, back to back with the
     unsampled baseline (before the parallel rows churn the heap) so
     the ratio is a same-process race, not a drift measurement. Sampler
     ticks are engine events, so the full fingerprint is not comparable
     — but the traffic totals must not move, and check.sh gates the
     rate at >= 0.95x the unsampled run. *)
  let seq_tl =
    timed "seq-tl"
      { (cfg 1) with
        Runner.sample_interval = Some Mvpn_core.Sampler.default_interval }
      Runner.run_sequential
  in
  if
    seq_tl.outcome.Runner.delivered <> seq.outcome.Runner.delivered
    || seq_tl.outcome.Runner.dropped <> seq.outcome.Runner.dropped
  then failwith "E16: arming the timeline sampler changed traffic totals";
  report seq_tl;
  T.Gauge.set (T.Registry.gauge "e16.rate.seq_sampler_pps") (rate seq_tl);
  T.Gauge.set (T.Registry.gauge "e16.overhead.sampler")
    (rate seq_tl /. seq_rate);
  (* Dispatch-cost ledger: the same run again with the engine profiler
     on. Publishes the sim.profile.* gauges — the pop / handler / flush
     wall-time split and per-kind dispatch counts check.sh asserts on.
     Profiling never touches the schedule, so the full fingerprint must
     hold. *)
  let seq_prof =
    timed "seq-prof" { (cfg 1) with Runner.profile = true }
      Runner.run_sequential
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
    "\nseq-heap / seq-cal CPU seconds, median of %d interleaved pairs: %.3f"
    backend_pairs heap_over_cal;
  Tables.note
    "\nEvery row carries the same fingerprint — delivered, dropped,\n\
     executed and scheduled events, per-class sums and the SLO verdict\n\
     are byte-identical from the seq-heap oracle through K=8 (the\n\
     bench aborts on any divergence). seq-heap and seq-cal run the\n\
     same schedule through the binary-heap oracle and the\n\
     calendar-queue fast path in one process, in interleaved pairs\n\
     (the first pair is shown); the line above is the median pair's\n\
     CPU-time ratio. Shards exchange cut-link packets through\n\
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
     traffic totals, bounded-ring series, gated at >= 0.95x the\n\
     unsampled rate) and seq-prof with the dispatch-cost ledger on\n\
     (identical fingerprint; publishes the sim.profile.* split)."
