#!/bin/sh
# Repository gate: everything must build (libraries, binaries, benches,
# examples) and the full test suite must pass. lib/telemetry is built
# with warnings as errors (see lib/telemetry/dune).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== E0 bench smoke (forwarding race + telemetry dump)"
dune exec bench/main.exe -- --only E0 > /dev/null
./_build/default/tools/json_lint.exe --require-schema < BENCH_telemetry.json
for g in e0.rate.cached_pps e0.rate.uncached_pps; do
  grep -q "\"$g\"" BENCH_telemetry.json || {
    echo "missing gauge $g in BENCH_telemetry.json" >&2
    exit 1
  }
done

echo "== E6 bench smoke (SLA conformance + event log)"
dune exec bench/main.exe -- --only E6 > /dev/null
./_build/default/tools/json_lint.exe --require-schema < BENCH_telemetry.json
grep -q '"e6c\.slo\.vpn' BENCH_telemetry.json || {
  echo "no per-(vpn, band) conformance gauges after the E6 smoke" >&2
  exit 1
}
grep -q '"kind":"slo_' BENCH_telemetry.json || {
  echo "no slo events in the event log after the E6 smoke" >&2
  exit 1
}
# Accounting gauges must only name known bands (0..3).
if grep -Eo '"acct\.vpn[0-9]+\.band[0-9]+' BENCH_telemetry.json \
   | grep -Ev 'band[0-3]$' | grep -q .; then
  echo "unknown-band accounting gauge in BENCH_telemetry.json" >&2
  exit 1
fi

echo "== mvpn slo --json well-formed"
slo_json=$(dune exec bin/mvpn.exe -- slo --json --duration 5) || {
  echo "mvpn slo reports out of budget on a healthy run" >&2
  exit 1
}
printf '%s' "$slo_json" | ./_build/default/tools/json_lint.exe --require-schema
printf '%s' "$slo_json" | grep -q '"objectives":\[{"vpn":' || {
  echo "no slo records in mvpn slo --json" >&2
  exit 1
}
printf '%s' "$slo_json" | grep -q '"events":\[{"seq":' || {
  echo "empty event log in mvpn slo --json" >&2
  exit 1
}

echo "== E15 bench smoke (chaos: FRR on vs off, resilience gauges)"
dune exec bench/main.exe -- --only E15 > /dev/null
./_build/default/tools/json_lint.exe --require-schema < BENCH_telemetry.json
for g in e15.frr.lost e15.nofrr.lost e15.frr_gain_packets \
         e15.frr.resilience.frr.switched resilience.chaos.faults; do
  grep -q "\"$g\"" BENCH_telemetry.json || {
    echo "missing resilience metric $g in BENCH_telemetry.json" >&2
    exit 1
  }
done

echo "== mvpn chaos --json deterministic and well-formed"
chaos_a=$(dune exec bin/mvpn.exe -- chaos --seed 42 --duration 10 --json)
chaos_b=$(dune exec bin/mvpn.exe -- chaos --seed 42 --duration 10 --json)
printf '%s' "$chaos_a" | ./_build/default/tools/json_lint.exe --require-schema
[ "$chaos_a" = "$chaos_b" ] || {
  echo "mvpn chaos --seed 42 --json differs between two runs" >&2
  exit 1
}
printf '%s' "$chaos_a" | grep -q '"plan":\[{"kind":' || {
  echo "no fault plan in mvpn chaos --json" >&2
  exit 1
}
printf '%s' "$chaos_a" | grep -q '"resilience.chaos.faults":12' || {
  echo "chaos fault counter missing or wrong in mvpn chaos --json" >&2
  exit 1
}

echo "== mvpn stats --json well-formed"
stats_json=$(dune exec bin/mvpn.exe -- stats --json --duration 2)
printf '%s' "$stats_json" | ./_build/default/tools/json_lint.exe --require-schema
for c in fib.cache.hit fib.cache.miss ftn.cache.hit ftn.cache.miss; do
  printf '%s' "$stats_json" | grep -q "\"$c\"" || {
    echo "missing counter $c in mvpn stats --json" >&2
    exit 1
  }
done

echo "== json_lint rejects non-finite numbers"
for bad in '{"x":inf}' '{"x":-inf}' '{"x":nan}' '{"x":Infinity}'; do
  if printf '%s' "$bad" | ./_build/default/tools/json_lint.exe 2>/dev/null
  then
    echo "json_lint accepted non-finite JSON: $bad" >&2
    exit 1
  fi
done

echo "== json_lint --require-schema rejects unversioned dumps"
for bad in '{"x":1}' '[1,2]' '{"schema":"1"}'; do
  if printf '%s' "$bad" \
     | ./_build/default/tools/json_lint.exe --require-schema 2>/dev/null
  then
    echo "json_lint --require-schema accepted: $bad" >&2
    exit 1
  fi
done

echo "== E16 bench smoke (parallel runner rates + speedups)"
dune exec bench/main.exe -- --only E16 > /dev/null
./_build/default/tools/json_lint.exe --require-schema < BENCH_telemetry.json
for g in e16.rate.seq_pps e16.rate.seq_heap_pps e16.rate.seq_calendar_pps \
         e16.rate.k2_pps e16.rate.k4_pps \
         e16.rate.k8_pps e16.speedup.k2 e16.speedup.k4 e16.speedup.k8; do
  grep -q "\"$g\"" BENCH_telemetry.json || {
    echo "missing parallel-runner gauge $g in BENCH_telemetry.json" >&2
    exit 1
  }
done

echo "== flat-packet allocation gate (sim.gc.minor_words_per_event <= 8)"
grep -q '"sim\.gc\.minor_words_per_event"' BENCH_telemetry.json || {
  echo "missing sim.gc.minor_words_per_event gauge in BENCH_telemetry.json" >&2
  exit 1
}
wpe=$(grep -o '"sim\.gc\.minor_words_per_event":[0-9.eE+-]*' \
  BENCH_telemetry.json | cut -d: -f2)
awk -v w="$wpe" 'BEGIN { exit !(w+0 > 0 && w+0 <= 8) }' || {
  echo "minor words/event out of budget: $wpe (gate: > 0 and <= 8)" >&2
  exit 1
}

echo "== flat-packet speed gate (seq_pps vs the PR 6 baseline)"
# PR 6 seq-calendar baseline measured on this container: 155694 pps.
# The flat-packet PR targets 2x; observed steady state is ~1.35x
# (208-227k pps — the residual cost is event dispatch, not allocation;
# see EXPERIMENTS.md E16). Gated at 1.15x so real regressions fail
# while single-core scheduling noise (~±10%) does not.
seq_pps=$(grep -o '"e16\.rate\.seq_pps":[0-9.eE+-]*' \
  BENCH_telemetry.json | cut -d: -f2)
awk -v s="$seq_pps" 'BEGIN { exit !(s+0 >= 1.15 * 155694) }' || {
  echo "e16.rate.seq_pps regressed: $seq_pps < 1.15x the PR 6 baseline" >&2
  exit 1
}

echo "== Packet.pp smoke (label stack rendering)"
./_build/default/tools/pp_smoke.exe > /dev/null

echo "== calendar queue at least matches the heap (same-process race)"
heap_pps=$(grep -o '"e16\.rate\.seq_heap_pps":[0-9.eE+-]*' \
  BENCH_telemetry.json | cut -d: -f2)
cal_pps=$(grep -o '"e16\.rate\.seq_calendar_pps":[0-9.eE+-]*' \
  BENCH_telemetry.json | cut -d: -f2)
awk -v h="$heap_pps" -v c="$cal_pps" 'BEGIN { exit !(c+0 >= h+0) }' || {
  echo "calendar backend slower than heap: $cal_pps < $heap_pps pps" >&2
  exit 1
}

echo "== sampler overhead gate (seq_sampler_pps >= 0.95x seq_pps)"
sam_pps=$(grep -o '"e16\.rate\.seq_sampler_pps":[0-9.eE+-]*' \
  BENCH_telemetry.json | cut -d: -f2)
awk -v s="$seq_pps" -v t="$sam_pps" 'BEGIN { exit !(t+0 >= 0.95 * s) }' || {
  echo "timeline sampler overhead out of budget:" \
       "$sam_pps < 0.95 x $seq_pps pps" >&2
  exit 1
}

echo "== dispatch-cost ledger published (sim.profile.* gauges)"
for g in sim.profile.pop_s sim.profile.handler_s sim.profile.flush_s \
         sim.profile.events sim.profile.kind.port.tx \
         sim.profile.kind.port.propagate sim.profile.kind.traffic.src; do
  grep -q "\"$g\"" BENCH_telemetry.json || {
    echo "missing profiler gauge $g in BENCH_telemetry.json" >&2
    exit 1
  }
done
prof_ev=$(grep -o '"sim\.profile\.events":[0-9.eE+-]*' \
  BENCH_telemetry.json | cut -d: -f2)
awk -v e="$prof_ev" 'BEGIN { exit !(e+0 > 0) }' || {
  echo "sim.profile.events is zero — the profiled drain never ran" >&2
  exit 1
}

echo "== mvpn timeline --json deterministic, shard-invariant, well-formed"
tl_a=$(dune exec bin/mvpn.exe -- timeline --duration 5 --json)
tl_b=$(dune exec bin/mvpn.exe -- timeline --duration 5 --json)
tl_k4=$(dune exec bin/mvpn.exe -- timeline --duration 5 --shards 4 --json)
printf '%s' "$tl_a" | ./_build/default/tools/json_lint.exe --require-schema
[ "$tl_a" = "$tl_b" ] || {
  echo "mvpn timeline --json differs between two runs" >&2
  exit 1
}
[ "$tl_a" = "$tl_k4" ] || {
  echo "mvpn timeline --json differs between --shards 1 and --shards 4" >&2
  exit 1
}
printf '%s' "$tl_a" | grep -q '"ts\.link\.0\.util"' || {
  echo "no link-utilization series in mvpn timeline --json" >&2
  exit 1
}
printf '%s' "$tl_a" | grep -q '"ts\.slo\.v1\.b0\.burn"' || {
  echo "no derived burn series in mvpn timeline --json" >&2
  exit 1
}

echo "== mvpn par --json deterministic and well-formed"
par_a=$(dune exec bin/mvpn.exe -- par --shards 4 --duration 2 --json)
par_b=$(dune exec bin/mvpn.exe -- par --shards 4 --duration 2 --json)
printf '%s' "$par_a" | ./_build/default/tools/json_lint.exe --require-schema
[ "$par_a" = "$par_b" ] || {
  echo "mvpn par --shards 4 --json differs between two runs" >&2
  exit 1
}

echo "== mvpn par totals match mvpn stats (same seed/scenario)"
par_counters=$(printf '%s' "$par_a" \
  | grep -o '"counters":{[^}]*}' | head -n 1)
stats_counters=$(printf '%s' "$stats_json" \
  | grep -o '"counters":{[^}]*}' | head -n 1)
[ -n "$par_counters" ] && [ "$par_counters" = "$stats_counters" ] || {
  echo "mvpn par counters diverge from the sequential mvpn stats run" >&2
  exit 1
}

echo "== E18 bench smoke (audited soak gauges)"
dune exec bench/main.exe -- --only E18 > /dev/null
./_build/default/tools/json_lint.exe --require-schema < BENCH_telemetry.json
for g in e18.events e18.rate.base_pps e18.rate.audit_pps e18.rate.chaos_pps \
         e18.overhead.audit e18.audit.ticks e18.audit.violations \
         audit.ticks audit.check.conservation audit.check.loops \
         audit.check.frr audit.check.slo audit.check.queues \
         audit.check.heap audit.check.pool; do
  grep -q "\"$g\"" BENCH_telemetry.json || {
    echo "missing audited-soak metric $g in BENCH_telemetry.json" >&2
    exit 1
  }
done

echo "== audited soak is big enough (e18.events >= 1e6)"
e18_ev=$(grep -o '"e18\.events":[0-9.eE+-]*' BENCH_telemetry.json \
  | cut -d: -f2)
awk -v e="$e18_ev" 'BEGIN { exit !(e+0 >= 1000000) }' || {
  echo "audited soak too small: $e18_ev events < 1e6" >&2
  exit 1
}

echo "== audit soundness gate (e18.audit.violations == 0)"
e18_viol=$(grep -o '"e18\.audit\.violations":[0-9.eE+-]*' \
  BENCH_telemetry.json | cut -d: -f2)
awk -v v="$e18_viol" 'BEGIN { exit !(v+0 == 0) }' || {
  echo "invariant violations in the audited soak: $e18_viol" >&2
  exit 1
}

echo "== audit overhead gate (e18.overhead.audit >= 0.95)"
# CPU-seconds ratio of the unaudited vs audited sequential soak, best
# of two interleaved runs each — per-tick checks cost ~150us, so the
# true ratio sits around 0.98.
e18_oh=$(grep -o '"e18\.overhead\.audit":[0-9.eE+-]*' BENCH_telemetry.json \
  | cut -d: -f2)
awk -v o="$e18_oh" 'BEGIN { exit !(o+0 >= 0.95) }' || {
  echo "invariant auditor overhead out of budget: $e18_oh < 0.95" >&2
  exit 1
}

echo "== mvpn soak --json deterministic, shard-invariant, well-formed"
soak_a=$(dune exec bin/mvpn.exe -- soak --hours 0.002 --chaos 7 --json) || {
  echo "mvpn soak reported invariant violations on a healthy run" >&2
  exit 1
}
soak_b=$(dune exec bin/mvpn.exe -- soak --hours 0.002 --chaos 7 --json)
soak_k4=$(dune exec bin/mvpn.exe -- soak --hours 0.002 --chaos 7 \
  --shards 4 --json) || {
  echo "mvpn soak --shards 4 reported invariant violations" >&2
  exit 1
}
printf '%s' "$soak_a" | ./_build/default/tools/json_lint.exe --require-schema
[ "$soak_a" = "$soak_b" ] || {
  echo "mvpn soak --json differs between two runs" >&2
  exit 1
}
[ "$soak_a" = "$soak_k4" ] || {
  echo "mvpn soak --json differs between --shards 1 and --shards 4" >&2
  exit 1
}
printf '%s' "$soak_a" | grep -q '"chaos":{"seed":7,"plan":\[{"kind":' || {
  echo "no replayable chaos plan in mvpn soak --json" >&2
  exit 1
}
printf '%s' "$soak_a" \
  | grep -q '"audit":{"interval":[0-9.eE+-]*,"ticks":[1-9]' || {
  echo "auditor never ticked in mvpn soak --json" >&2
  exit 1
}
printf '%s' "$soak_a" \
  | grep -q '"audit":{"interval":[0-9.eE+-]*,"ticks":[0-9]*,"violations":0}' \
  || {
  echo "audit violations in mvpn soak --json" >&2
  exit 1
}

echo "== mvpn provision --json deterministic, oracle-validated, well-formed"
prov_a=$(dune exec bin/mvpn.exe -- provision --customers 300 --churn 50 \
  --json) || {
  echo "mvpn provision churn diverged from the from-scratch oracle" >&2
  exit 1
}
prov_b=$(dune exec bin/mvpn.exe -- provision --customers 300 --churn 50 \
  --json)
printf '%s' "$prov_a" | ./_build/default/tools/json_lint.exe --require-schema
[ "$prov_a" = "$prov_b" ] || {
  echo "mvpn provision --json differs between two runs" >&2
  exit 1
}
printf '%s' "$prov_a" | grep -q '"oracle_match":true' || {
  echo "incremental provisioning does not match the oracle" >&2
  exit 1
}
printf '%s' "$prov_a" | grep -q '"per_pe":\[{"pe":0,' || {
  echo "no per-PE state table in mvpn provision --json" >&2
  exit 1
}

echo "== E19 bench smoke (provisioning at scale: 10k VPNs, C1)"
dune exec bench/main.exe -- --only E19 > /dev/null
./_build/default/tools/json_lint.exe --require-schema < BENCH_telemetry.json
for g in e19.sites e19.routes e19.vrfs e19.state.routes_per_pe \
         e19.state.growth e19.mem.bytes_per_route e19.converge.p99_ms \
         e19.converge.full_ms e19.converge.speedup \
         e19.converge.words_per_delta; do
  grep -q "\"$g\"" BENCH_telemetry.json || {
    echo "missing provisioning gauge $g in BENCH_telemetry.json" >&2
    exit 1
  }
done

echo "== E19 scale gate (e19.routes >= 1e5)"
e19_routes=$(grep -o '"e19\.routes":[0-9.eE+-]*' BENCH_telemetry.json \
  | cut -d: -f2)
awk -v r="$e19_routes" 'BEGIN { exit !(r+0 >= 100000) }' || {
  echo "E19 too small: $e19_routes routes < 1e5" >&2
  exit 1
}

echo "== incremental convergence gate (e19.converge.speedup >= 100)"
# A single delta at 10k VPNs must converge at least 100x faster (p99)
# than a from-scratch recompile of the same portfolio; measured
# headroom is ~5e4x, gated at 100x to absorb scheduling noise.
e19_speedup=$(grep -o '"e19\.converge\.speedup":[0-9.eE+-]*' \
  BENCH_telemetry.json | cut -d: -f2)
awk -v s="$e19_speedup" 'BEGIN { exit !(s+0 >= 100) }' || {
  echo "incremental convergence too slow: ${e19_speedup}x < 100x" >&2
  exit 1
}

echo "== delta allocation gate (e19.converge.words_per_delta <= 5000)"
# Deterministic stand-in for "a delta costs O(affected VPN)": ~240
# minor words per delta over E19's churn. A delta that copies the whole
# 110k-site member list on a removal allocates ~1e5. A scan that does
# not allocate (a fold over a PE's exports) shows only in time.
e19_words=$(grep -o '"e19\.converge\.words_per_delta":[0-9.eE+-]*' \
  BENCH_telemetry.json | cut -d: -f2)
awk -v w="$e19_words" 'BEGIN { exit !(w+0 <= 5000) }' || {
  echo "deltas allocate too much: ${e19_words} words > 5000" >&2
  exit 1
}

echo "== exit-code contract: slo/soak report through status codes"
# 0 = clean, 1 = out of budget / invariants violated, 124 = usage error
# (cmdliner). Pinned here so scripts and CI can rely on them.
if dune exec bin/mvpn.exe -- slo --chaos 2 --duration 20 \
   > /dev/null 2>&1; then
  echo "mvpn slo --chaos 2 should exit 1 (out of budget) but exited 0" >&2
  exit 1
else
  rc=$?
  [ "$rc" -eq 1 ] || {
    echo "mvpn slo --chaos 2 exited $rc, want 1" >&2
    exit 1
  }
fi
for bad_cmd in "slo --bogus-flag" "soak --hours -1" "soak --hours nan" \
               "soak --hours 0.001 --audit-interval 0" \
               "provision --customers 0" "provision --bogus-flag" \
               "provision --pops 99" "provision --churn -1"; do
  if dune exec bin/mvpn.exe -- $bad_cmd > /dev/null 2>&1; then
    echo "mvpn $bad_cmd should fail with a usage error but exited 0" >&2
    exit 1
  else
    rc=$?
    [ "$rc" -eq 124 ] || {
      echo "mvpn $bad_cmd exited $rc, want 124 (cmdliner usage error)" >&2
      exit 1
    }
  fi
done

echo "ok"
