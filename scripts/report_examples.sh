#!/bin/sh
# Observability CLI gate: runs `mao --mao-report` (and --mao-trace-out)
# over the example corpus and checks the documented contract:
#
#   - the run report is written and is well-formed JSON,
#   - it carries the required top-level sections
#     (version, input, pipeline, caches, counters, timings),
#   - with the "timings" section removed, the report is byte-identical
#     for every --mao-jobs value (1, 2, 8 and 0 = hardware concurrency):
#     jobs change wall-clock, nothing else,
#   - the --mao-trace-out timeline is a valid Chrome trace-event document
#     (a traceEvents list whose complete events carry ph/ts/dur/tid),
#   - stderr under --mao-trace-level=2 (pass trace lines and warnings) is
#     byte-identical for every --mao-jobs value.
#
# Registered as the ctest entry `report_examples`; run standalone as
#
#   scripts/report_examples.sh path/to/mao [examples-dir]
#
# Exits 77 (ctest SKIP) when python3 is unavailable: the JSON checks are
# the substance of this gate.
set -u

MAO="${1:?usage: report_examples.sh path/to/mao [examples-dir]}"
EXAMPLES="${2:-$(dirname "$0")/../examples}"
TMPDIR="${TMPDIR:-/tmp}"
REPORT="$TMPDIR/mao_report_examples.$$.json"
BASELINE="$TMPDIR/mao_report_examples_base.$$.json"
NORMALIZED="$TMPDIR/mao_report_examples_norm.$$.json"
TRACE="$TMPDIR/mao_report_examples_trace.$$.json"
FAILED=0
PIPELINE="zee,redtest,sched"
TRACE_PIPELINE="zee,redtest,sched,lfind,simaddr"

if ! command -v python3 >/dev/null 2>&1; then
  echo "report_examples: SKIP: python3 not available" >&2
  exit 77
fi

cleanup() { rm -f "$REPORT" "$BASELINE" "$NORMALIZED" "$TRACE"; }
trap cleanup EXIT

fail() {
  echo "report_examples: FAIL: $1" >&2
  FAILED=1
}

# validate_report <file>: well-formed JSON with the required sections.
validate_report() {
  python3 - "$1" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
required = ["version", "input", "pipeline", "caches", "counters", "timings"]
missing = [k for k in required if k not in d]
if missing:
    sys.exit("missing keys: " + ", ".join(missing))
if d["version"] != 1:
    sys.exit("unexpected version: %r" % d["version"])
if not isinstance(d["pipeline"].get("passes"), list):
    sys.exit("pipeline.passes is not a list")
EOF
}

# normalize_report <in> <out>: drop the timings section (the only part
# allowed to vary with --mao-jobs) and re-serialize canonically.
normalize_report() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
d.pop("timings", None)
open(sys.argv[2], "w").write(json.dumps(d, sort_keys=True, indent=1))
EOF
}

# validate_trace <file>: Chrome trace-event schema.
validate_trace() {
  python3 - "$1" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
events = d.get("traceEvents")
if not isinstance(events, list) or not events:
    sys.exit("traceEvents missing or empty")
for e in events:
    for key in ("ph", "pid", "name"):
        if key not in e:
            sys.exit("event missing %r: %r" % (key, e))
    if e["ph"] == "X":
        for key in ("ts", "dur", "tid"):
            if key not in e:
                sys.exit("complete event missing %r: %r" % (key, e))
EOF
}

for kernel in clean tune_fig1 tune_lsd tune_alias; do
  input="$EXAMPLES/$kernel.s"
  [ -f "$input" ] || { fail "$kernel: missing input $input"; continue; }

  rm -f "$BASELINE"
  for jobs in 1 2 8 0; do
    rm -f "$REPORT" "$NORMALIZED"
    if ! "$MAO" "--mao-passes=$PIPELINE" "--mao-jobs=$jobs" \
        "--mao-report=$REPORT" "$input" >/dev/null 2>&1; then
      fail "$kernel: run failed with --mao-jobs=$jobs"
      continue
    fi
    if [ ! -s "$REPORT" ]; then
      fail "$kernel: report was not written with --mao-jobs=$jobs"
      continue
    fi
    if ! err=$(validate_report "$REPORT" 2>&1); then
      fail "$kernel: invalid report with --mao-jobs=$jobs: $err"
      continue
    fi
    normalize_report "$REPORT" "$NORMALIZED"
    if [ ! -f "$BASELINE" ]; then
      mv "$NORMALIZED" "$BASELINE"
    elif ! cmp -s "$NORMALIZED" "$BASELINE"; then
      fail "$kernel: non-timing report sections differ at --mao-jobs=$jobs"
    fi
  done

  # Trace-event timeline: one run per kernel is enough for the schema.
  rm -f "$TRACE"
  if ! "$MAO" "--mao-passes=$PIPELINE" "--mao-trace-out=$TRACE" \
      "$input" >/dev/null 2>&1; then
    fail "$kernel: run failed with --mao-trace-out"
  elif [ ! -s "$TRACE" ]; then
    fail "$kernel: trace timeline was not written"
  elif ! err=$(validate_trace "$TRACE" 2>&1); then
    fail "$kernel: invalid trace timeline: $err"
  fi
done

# Sharded passes trace from worker threads; their lines, like their
# warnings, must come out in function order at every worker count.
for kernel in clean abi_demo layout_hotcold; do
  input="$EXAMPLES/$kernel.s"
  [ -f "$input" ] || { fail "$kernel: missing input $input"; continue; }

  rm -f "$BASELINE"
  for jobs in 1 2 8 0; do
    if ! "$MAO" "--mao-passes=$TRACE_PIPELINE" --mao-trace-level=2 \
        "--mao-jobs=$jobs" "$input" >/dev/null 2>"$REPORT"; then
      fail "$kernel: traced run failed with --mao-jobs=$jobs"
      continue
    fi
    if [ ! -f "$BASELINE" ]; then
      mv "$REPORT" "$BASELINE"
    elif ! cmp -s "$REPORT" "$BASELINE"; then
      fail "$kernel: stderr differs at --mao-jobs=$jobs"
    fi
  done
done

# --stats prints the human table without disturbing the run.
if ! "$MAO" "--mao-passes=$PIPELINE" --stats "$EXAMPLES/clean.s" \
    >/dev/null 2>"$REPORT"; then
  fail "clean: run failed with --stats"
elif ! grep -q "pipeline.passes_run" "$REPORT"; then
  fail "clean: --stats table is missing pipeline counters"
fi

if [ "$FAILED" -ne 0 ]; then
  exit 1
fi
echo "report_examples: OK"
exit 0
