#!/bin/sh
# Bench trajectory gate: runs every bench binary in quick mode and
# validates each emitted BENCH_<name>.json against the shared schema
# (bench/BenchJson.h):
#
#   {"bench": "<name>", "schema": 1, "metrics": {"<key>": <number>, ...}}
#
#   - "bench" is a non-empty string, "schema" is the integer 1,
#   - "metrics" is a non-empty object of finite numbers keyed by
#     [A-Za-z0-9_]+ names,
#   - no other top-level keys exist (additions must bump the schema).
#
# The shared shape is what makes the bench suite a *trajectory*: any run is
# comparable to any other run, metric by metric, across commits. On top of
# the schema, the throughput headline bench_core publishes is checked for
# presence and sanity (positive MB/s, determinism flag set).
#
# Registered as the ctest entry `bench_trajectory`; run standalone as
#
#   scripts/bench_trajectory.sh path/to/build/bench [examples-dir]
#
# Exits 77 (ctest SKIP) when python3 is unavailable: the JSON checks are
# the substance of this gate.
set -u

BENCHDIR="${1:?usage: bench_trajectory.sh path/to/bench-dir [examples-dir]}"
EXAMPLES="${2:-$(dirname "$0")/../examples}"
WORK="${TMPDIR:-/tmp}/mao_bench_trajectory.$$"
FAILED=0

if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_trajectory: SKIP: python3 not available" >&2
  exit 77
fi

mkdir -p "$WORK" || exit 1
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

fail() {
  echo "bench_trajectory: FAIL: $1" >&2
  FAILED=1
}

# validate_schema <file> <expected-name>
validate_schema() {
  python3 - "$1" "$2" <<'EOF'
import json, math, re, sys
d = json.load(open(sys.argv[1]))
if set(d.keys()) != {"bench", "schema", "metrics"}:
    sys.exit("top-level keys must be exactly bench/schema/metrics, got %s"
             % sorted(d.keys()))
if d["schema"] != 1:
    sys.exit("unexpected schema version: %r" % d["schema"])
if not isinstance(d["bench"], str) or not d["bench"]:
    sys.exit("bench name missing or empty")
if d["bench"] != sys.argv[2]:
    sys.exit("bench name %r does not match binary %r"
             % (d["bench"], sys.argv[2]))
metrics = d["metrics"]
if not isinstance(metrics, dict) or not metrics:
    sys.exit("metrics missing or empty")
for key, value in metrics.items():
    if not re.fullmatch(r"[A-Za-z0-9_]+", key):
        sys.exit("metric key %r not in [A-Za-z0-9_]+" % key)
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
       or not math.isfinite(value):
        sys.exit("metric %r is not a finite number: %r" % (key, value))
EOF
}

RAN=0
for bin in "$BENCHDIR"/bench_*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name=$(basename "$bin")
  short=${name#bench_}
  json="$WORK/BENCH_$short.json"

  # Quick mode: google-benchmark harnesses honour --benchmark_min_time and
  # ignore the rest; printf harnesses honour --bench-json/--examples and
  # ignore the rest. Benches must exit 0 even in quick mode.
  if ! "$bin" "--bench-json=$json" --benchmark_min_time=0.01 \
      "--examples=$EXAMPLES" >/dev/null 2>&1; then
    fail "$name: run failed"
    continue
  fi
  if [ ! -s "$json" ]; then
    fail "$name: BENCH_$short.json was not written"
    continue
  fi
  if ! err=$(validate_schema "$json" "$short" 2>&1); then
    fail "$name: schema violation: $err"
    continue
  fi
  RAN=$((RAN + 1))
done

if [ "$RAN" -eq 0 ]; then
  fail "no bench binaries found in $BENCHDIR"
fi

# The throughput-core headline: bench_core must publish the parse
# trajectory (examples and synthetic MB/s), the cross-jobs determinism bit,
# paper6's CFG builds per function, which must stay at most 2 (passes
# share one kept CFG per function and rebuild it only after a control-flow
# edit), and the IR's arena bytes per entry, which must stay at most 192
# (a 160-byte MaoEntry plus its list links). The MB/s thresholds are sanity
# floors, not the performance bar — quick mode underestimates steady-state
# MB/s.
if [ -s "$WORK/BENCH_core.json" ]; then
  if ! err=$(python3 - "$WORK/BENCH_core.json" <<'EOF' 2>&1
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
required = [
    "examples_parse_mb_s", "synthetic_parse_mb_s", "jobs_byte_identical",
    "paper6_cfg_builds_per_function", "ir_bytes_per_entry",
]
missing = [k for k in required if k not in m]
if missing:
    sys.exit("bench_core metrics missing: " + ", ".join(missing))
for key in required[:2]:
    if m[key] <= 0:
        sys.exit("bench_core metric %s is not positive: %r" % (key, m[key]))
if m["jobs_byte_identical"] != 1:
    sys.exit("pipeline output was not byte-identical across --mao-jobs")
if m["paper6_cfg_builds_per_function"] > 2:
    sys.exit("paper6 builds %.2f CFGs per function (at most 2)"
             % m["paper6_cfg_builds_per_function"])
if not 0 < m["ir_bytes_per_entry"] <= 192:
    sys.exit("the IR takes %.1f arena bytes per entry (at most 192)"
             % m["ir_bytes_per_entry"])
EOF
  ); then
    fail "bench_core headline: $err"
  fi
else
  fail "bench_core did not produce BENCH_core.json"
fi

# The code-layout headline: bench_layout must publish the HOTCOLD and
# BBREORDER trajectories against the instruction-side hierarchy, and both
# passes must actually win on their kernels (strict speedups, nonzero
# move counts) — the layout work's reason to exist, tracked per commit.
if [ -s "$WORK/BENCH_layout.json" ]; then
  if ! err=$(python3 - "$WORK/BENCH_layout.json" <<'EOF' 2>&1
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
required = [
    "hotcold_moves", "hotcold_itlb_misses_before",
    "hotcold_itlb_misses_after", "hotcold_speedup_x",
    "bbreorder_moves", "bbreorder_lsd_uops_after", "bbreorder_speedup_x",
]
missing = [k for k in required if k not in m]
if missing:
    sys.exit("bench_layout metrics missing: " + ", ".join(missing))
if m["hotcold_moves"] < 1 or m["bbreorder_moves"] < 1:
    sys.exit("a layout pass moved nothing on its own kernel")
if m["hotcold_speedup_x"] <= 1 or m["bbreorder_speedup_x"] <= 1:
    sys.exit("a layout pass did not strictly win on its own kernel")
if m["hotcold_itlb_misses_after"] >= m["hotcold_itlb_misses_before"]:
    sys.exit("HOTCOLD did not reduce ITLB misses")
EOF
  ); then
    fail "bench_layout headline: $err"
  fi
else
  fail "bench_layout did not produce BENCH_layout.json"
fi

if [ "$FAILED" -ne 0 ]; then
  exit 1
fi
echo "bench_trajectory: OK ($RAN benches validated)"
exit 0
