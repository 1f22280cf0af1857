#!/bin/sh
# Repository gate. Everything must build and `dune runtest` must pass;
# that includes the golden corpus (test/golden), which pins the bytes
# and exit codes of short mvpn runs. Bench bounds live in
# tools/gate.ml. What stays here needs more than one run to check:
# run-to-run determinism and shard invariance.
set -eu

cd "$(dirname "$0")/.."

mvpn=./_build/default/bin/mvpn.exe
json_lint=./_build/default/tools/json_lint.exe
lint() { "$json_lint" --require-schema; }

# The default profile is release (dune-workspace), which builds without
# -opaque. Its flags must keep the dev profile's lint: the same
# warnings-as-errors spec and -strict-sequence, in the root project and
# in perfbench's separate one. Unused module aliases (60) and record
# fields written but never read (69) are errors too.
echo "== lint parity: lib and perfbench carry the dev warning spec"
for dir in lib perfbench; do
  env_flags=$(dune printenv --root . "$dir")
  for want in '@1..3@5..28@30..39@43@46..47@49..57@61..62-40' @60 @69 \
    -strict-sequence; do
    case "$env_flags" in
      *"$want"*) ;;
      *)
        echo "dune printenv $dir lacks $want" >&2
        exit 1
        ;;
    esac
  done
done

echo "== dune build @all"
dune build @all

# Every val a lib interface exports has a caller outside its module
# (tests, benches, tools, examples and perfbench count), read from the
# typed trees @check writes.
echo "== every lib export has a caller"
dune build @check
./_build/default/tools/exports.exe

echo "== dune runtest"
dune runtest

for e in E0 E6 E15 E16 E18 E19; do
  echo "== $e bench + gate"
  ./_build/default/bench/main.exe --only "$e" > /dev/null
  lint < BENCH_telemetry.json
  ./_build/default/tools/gate.exe "$e" < BENCH_telemetry.json
done

echo "== json_lint rejects non-finite numbers and unversioned dumps"
for bad in '{"x":inf}' '{"x":-inf}' '{"x":nan}' '{"x":Infinity}'; do
  if printf '%s' "$bad" | "$json_lint" 2>/dev/null; then
    echo "json_lint accepted non-finite JSON: $bad" >&2
    exit 1
  fi
done
for bad in '{"x":1}' '[1,2]' '{"schema":"1"}'; do
  if printf '%s' "$bad" | lint 2>/dev/null; then
    echo "json_lint --require-schema accepted: $bad" >&2
    exit 1
  fi
done

# same A B WHAT: two captures must be byte-identical.
same() {
  [ "$1" = "$2" ] || {
    echo "mvpn $3" >&2
    exit 1
  }
}

echo "== --json dumps: well-formed, same across runs and shard counts"
chaos_a=$($mvpn chaos --seed 42 --duration 10 --json)
chaos_b=$($mvpn chaos --seed 42 --duration 10 --json)
same "$chaos_a" "$chaos_b" "chaos --seed 42 differs between two runs"
tl_a=$($mvpn timeline --duration 5 --json)
tl_b=$($mvpn timeline --duration 5 --json)
tl_k4=$($mvpn timeline --duration 5 --shards 4 --json)
same "$tl_a" "$tl_b" "timeline differs between two runs"
same "$tl_a" "$tl_k4" "timeline differs between --shards 1 and --shards 4"
par_a=$($mvpn par --shards 4 --duration 2 --json)
par_b=$($mvpn par --shards 4 --duration 2 --json)
same "$par_a" "$par_b" "par --shards 4 differs between two runs"
par_k1=$($mvpn par --shards 1 --duration 2 --json)
par_seq=$($mvpn par --seq --duration 2 --json)
same "$par_k1" "$par_seq" "par --shards 1 differs from par --seq"
soak_a=$($mvpn soak --hours 0.002 --chaos 7 --json)
soak_b=$($mvpn soak --hours 0.002 --chaos 7 --json)
soak_k4=$($mvpn soak --hours 0.002 --chaos 7 --shards 4 --json)
same "$soak_a" "$soak_b" "soak differs between two runs"
same "$soak_a" "$soak_k4" "soak differs between --shards 1 and --shards 4"
prov_a=$($mvpn provision --customers 300 --churn 50 --json)
prov_b=$($mvpn provision --customers 300 --churn 50 --json)
same "$prov_a" "$prov_b" "provision differs between two runs"
stats_json=$($mvpn stats --json --duration 2)
for j in "$chaos_a" "$tl_a" "$par_a" "$soak_a" "$prov_a" "$stats_json"; do
  printf '%s' "$j" | lint
done

echo "== mvpn par totals match mvpn stats (same seed/scenario)"
par_counters=$(printf '%s' "$par_a" | grep -o '"counters":{[^}]*}' | head -n 1)
stats_counters=$(printf '%s' "$stats_json" \
  | grep -o '"counters":{[^}]*}' | head -n 1)
[ -n "$par_counters" ] && [ "$par_counters" = "$stats_counters" ] || {
  echo "mvpn par counters diverge from the sequential mvpn stats run" >&2
  exit 1
}

echo "ok"
