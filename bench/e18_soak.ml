(* E18 — audited long-horizon soak: the streaming invariant auditor
   riding a diurnal-envelope run, plain and under a seeded topology
   chaos storm, sequential and sharded (ARCHITECTURE.md "Runtime
   invariants").

   Three claims, each checked loudly:

   1. The auditor is sound here: >= 10^6 executed events, seven
      invariants re-proven every simulated second, zero violations —
      with and without the storm, at every shard count.
   2. The auditor is invisible to the physics: traffic totals
      (delivered, dropped, per-class sums, SLO verdict) are identical
      audit-on vs audit-off, and across K = 1/2/4 shards under the
      same storm. Audit ticks are engine events, so executed-event
      counts legitimately differ; everything the packets did must not.
   3. The auditor is cheap: same-process rate ratio audited/unaudited,
      gated at >= 0.95x by check.sh. *)

open Mvpn_par
module T = Mvpn_telemetry
module Audit = Mvpn_resilience.Audit
module Harness = Mvpn_resilience.Harness

let duration = 72.0
let chaos_seed = 7

let base_cfg k =
  { Runner.default_config with
    Runner.shards = k; pops = 16; vpns = 4; sites_per_vpn = 8;
    load = 0.9; duration; seed = 11; diurnal = Some 8 }

(* The soak's topology-only storm, drawn once and closed over by every
   replica — the same plan is valid at any shard count. *)
let storm_plan =
  lazy
    (Harness.soak_storm ~events:24 ~seed:chaos_seed ~duration (fun () ->
         Runner.build (base_cfg 1)))

(* Both regimes — audited and baseline — carry the soak's live
   per-replica SLO engine, so the rate ratio isolates the auditor
   itself. *)
let prepare ~audit ~chaos =
  Harness.soak_replica
    ?storm:(if chaos then Some (chaos_seed, Lazy.force storm_plan) else None)
    ?audit:(if audit then Some (Audit.default_interval, false) else None)
    ~duration

let cfg ~k ~audit ~chaos =
  { (base_cfg k) with
    Runner.prepare_replica = prepare ~audit ~chaos }

type sample = {
  tag : string;
  outcome : Runner.outcome;
  wall : float;
  cpu : float;  (* this process's CPU seconds — noise-resistant *)
  ticks : int;  (* audit ticks, summed over replicas *)
  bad : int;  (* audit violations, summed over replicas *)
  words : float;  (* this domain's minor words: all of a K=1 run's *)
}

(* What the packets did — excludes executed/scheduled events, which the
   audit ticks legitimately inflate. *)
let traffic (o : Runner.outcome) =
  ( o.Runner.delivered, o.Runner.dropped, o.Runner.classes,
    T.Slo.in_budget o.Runner.slo, T.Slo.violation_count o.Runner.slo )

let timed tag c run =
  let w0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  let m0 = Gc.minor_words () in
  let outcome = run c in
  let words = Gc.minor_words () -. m0 in
  let cpu = Sys.time () -. c0 in
  let wall = Unix.gettimeofday () -. w0 in
  let count = T.Registry.snapshot_counter outcome.Runner.registry in
  (* No row reads the replicas; kept, they would hold every earlier
     run's scenarios live while the later runs are timed. *)
  { tag; outcome = { outcome with Runner.replicas = [||] }; wall; cpu; words;
    ticks = count "audit.ticks"; bad = count "audit.violations" }

(* Best of two, interleaved A B A B by the caller: the runs are
   deterministic, so the smaller CPU time is the same work minus GC
   drift from the process's heap history — the 0.95x gate should
   judge the auditor, not the machine's mood. (The sequential runs the
   gate races are single-domain, so CPU seconds, unlike wall seconds,
   are also immune to the scheduler preempting a shared box.) *)
let best a b =
  if b.cpu < a.cpu then { b with bad = a.bad + b.bad }
  else { a with bad = a.bad + b.bad }

let rate s = float_of_int s.outcome.Runner.delivered /. Float.max 1e-9 s.wall

let check_traffic ~baseline s =
  if traffic s.outcome <> traffic baseline.outcome then begin
    Printf.eprintf
      "E18: TRAFFIC MISMATCH %s vs %s\n\
      \  %s: delivered=%d dropped=%d\n\
      \  %s: delivered=%d dropped=%d\n"
      s.tag baseline.tag baseline.tag baseline.outcome.Runner.delivered
      baseline.outcome.Runner.dropped s.tag s.outcome.Runner.delivered
      s.outcome.Runner.dropped;
    failwith "E18: audited run diverged from its baseline"
  end

let check_clean s =
  if s.bad <> 0 then
    failwith
      (Printf.sprintf "E18: %s reported %d invariant violations" s.tag s.bad)

let run () =
  let c = base_cfg 1 in
  Tables.heading
    (Printf.sprintf
       "E18: audited soak (%d POPs, %d VPNs x %d sites, %.0fs diurnal, \
        seed %d, storm seed %d)"
       c.Runner.pops c.Runner.vpns c.Runner.sites_per_vpn duration
       c.Runner.seed chaos_seed);
  let widths = [11; 7; 10; 9; 9; 7; 6; 9; 8] in
  Tables.row widths
    [ "run"; "shards"; "delivered"; "dropped"; "events"; "ticks";
      "viol"; "wall"; "pps" ];
  Tables.rule widths;
  let report s =
    Tables.row widths
      [ s.tag; string_of_int s.outcome.Runner.shards;
        string_of_int s.outcome.Runner.delivered;
        string_of_int s.outcome.Runner.dropped;
        string_of_int s.outcome.Runner.events;
        string_of_int s.ticks; string_of_int s.bad;
        Printf.sprintf "%.2f s" s.wall;
        Printf.sprintf "%.0f" (rate s) ]
  in
  (* Unaudited baseline, then the identical run audited, back to back
     in one process so the rate ratio is a race, not a drift. *)
  let base_cfg' = cfg ~k:1 ~audit:false ~chaos:false in
  let audit_cfg = cfg ~k:1 ~audit:true ~chaos:false in
  let base1 = timed "seq" base_cfg' Runner.run_sequential in
  let audited1 = timed "seq-audit" audit_cfg Runner.run_sequential in
  let base = best base1 (timed "seq" base_cfg' Runner.run_sequential) in
  let audited =
    best audited1 (timed "seq-audit" audit_cfg Runner.run_sequential)
  in
  report base;
  if base.outcome.Runner.events < 1_000_000 then
    failwith
      (Printf.sprintf "E18: soak too small: %d events < 1e6"
         base.outcome.Runner.events);
  check_clean audited;
  check_traffic ~baseline:base audited;
  report audited;
  (* The same audited soak under the storm: new physics (faults drop
     and reroute traffic), same zero-violation requirement — the books
     must balance through flaps, outages and session drops. *)
  let chaos =
    timed "seq-chaos" (cfg ~k:1 ~audit:true ~chaos:true)
      Runner.run_sequential
  in
  check_clean chaos;
  report chaos;
  (* Sharded replicas of the audited storm: every replica audits its
     own books (cross-shard packets enter them as exports/imports) and
     the merged traffic must match the sequential storm exactly. *)
  List.iter
    (fun k ->
       let s =
         timed (Printf.sprintf "K=%d-chaos" k) (cfg ~k ~audit:true ~chaos:true)
           Runner.run_parallel
       in
       check_clean s;
       check_traffic ~baseline:chaos s;
       report s)
    [ 2; 4 ];
  T.Gauge.set (T.Registry.gauge "e18.events")
    (float_of_int base.outcome.Runner.events);
  T.Gauge.set (T.Registry.gauge "e18.rate.base_pps") (rate base);
  T.Gauge.set (T.Registry.gauge "e18.rate.audit_pps") (rate audited);
  T.Gauge.set (T.Registry.gauge "e18.rate.chaos_pps") (rate chaos);
  T.Gauge.set (T.Registry.gauge "e18.overhead.audit")
    (Float.max 1e-9 base.cpu /. Float.max 1e-9 audited.cpu);
  T.Gauge.set (T.Registry.gauge "e18.audit.ticks") (float_of_int audited.ticks);
  (* Storm repairs and audit ticks included: the seq-chaos run's
     garbage per executed event. *)
  T.Gauge.set (T.Registry.gauge "e18.gc.minor_words_per_event")
    (chaos.words /. float_of_int (max 1 chaos.outcome.Runner.events));
  T.Gauge.set (T.Registry.gauge "e18.audit.violations")
    (float_of_int (audited.bad + chaos.bad));
  Tables.note
    "\nThe auditor re-proves seven invariants every simulated second —\n\
     packet conservation against the authoritative drop table, pool\n\
     leak freedom, TTL/loop bounds from the hop-trace ring, FRR\n\
     protection-superset stability, SLO error-budget monotonicity,\n\
     queue-depth sanity and bounded live-heap growth — while the run\n\
     is still going. Every audited row above finished with zero\n\
     violations, over a million executed events, through a seeded\n\
     storm of link flaps, node outages and session drops, at K = 1/2/4\n\
     shards. Traffic totals are identical audit-on vs audit-off and\n\
     across shard counts (the bench aborts on any divergence); only\n\
     executed-event counts differ, by exactly the audit ticks. The\n\
     pps column is the same-process rate race check.sh gates at >=\n\
     0.95x: the checks read plain fields and bounded rings, so\n\
     auditing costs a few percent, not a rerun."
