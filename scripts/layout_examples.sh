#!/bin/sh
# Layout-pass gate: pins the simulated-cycle wins the I-cache/ITLB model
# and the code-layout passes are meant to deliver, plus the determinism
# contract for the new instruction-side counters:
#
#   - layout_hotcold.s: `mao --tune --tune-layout-axis` must beat the
#     default pipeline STRICTLY (the kernel thrashes the Core-2 model's
#     16-entry ITLB and L1I set 0 until HOTCOLD packs the live functions
#     together), and the winning pipeline must contain HOTCOLD.
#   - layout_reorder.s: BBREORDER must move at least one cold block, and
#     the reordered kernel must score strictly fewer simulated cycles
#     than the original (the dead mid-loop block blocks LSD streaming).
#   - the --mao-report of a tune run carries the uarch.l1i_* and
#     uarch.itlb_misses counters and is byte-identical across --mao-jobs
#     once the wall-clock "timings" section (the report's last) is dropped.
#
# Registered as the ctest entry `layout_examples`; run standalone as
#
#   scripts/layout_examples.sh path/to/mao [examples-dir]
set -u

MAO="${1:?usage: layout_examples.sh path/to/mao [examples-dir]}"
EXAMPLES="${2:-$(dirname "$0")/../examples}"
TMPDIR="${TMPDIR:-/tmp}"
WORK="$TMPDIR/mao_layout_examples.$$"
FAILED=0

mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "layout_examples: FAIL: $1" >&2
  FAILED=1
}

json_field() {
  # json_field <file> <key>  -> numeric value of "key": N
  sed -n "s/.*\"$2\": *\([0-9][0-9]*\).*/\1/p" "$1" | head -n 1
}

# --- layout_hotcold.s: strict tuner win through the layout axes. --------

REPORT="$WORK/hotcold_tune.json"
if ! "$MAO" --tune --tune-budget=small --tune-layout-axis \
    "--tune-report=$REPORT" "$EXAMPLES/layout_hotcold.s" \
    >/dev/null 2>&1; then
  fail "layout_hotcold: tune run failed"
else
  tuned=$(json_field "$REPORT" tuned_cycles)
  default=$(json_field "$REPORT" default_cycles)
  if [ -z "$tuned" ] || [ -z "$default" ]; then
    fail "layout_hotcold: report is missing tuned_cycles/default_cycles"
  elif [ "$tuned" -ge "$default" ]; then
    fail "layout_hotcold: expected a strict win (tuned $tuned vs default $default)"
  fi
  if ! grep -q '"tuned_pipeline": *"[^"]*HOTCOLD' "$REPORT"; then
    fail "layout_hotcold: winning pipeline does not include HOTCOLD"
  fi
fi

# Without the axis flag the tuner must not discover the layout passes:
# the axes are gated so default tune trajectories stay stable.
REPORT_OFF="$WORK/hotcold_off.json"
if "$MAO" --tune --tune-budget=small "--tune-report=$REPORT_OFF" \
    "$EXAMPLES/layout_hotcold.s" >/dev/null 2>&1; then
  if grep -q 'HOTCOLD\|BBREORDER' "$REPORT_OFF"; then
    fail "layout_hotcold: layout passes leaked into an un-gated tune run"
  fi
else
  fail "layout_hotcold: un-gated tune run failed"
fi

# --- layout_reorder.s: BBREORDER moves the cold block and wins. ---------

REORDERED="$WORK/reorder_bb.s"
BBLOG="$WORK/reorder_bb.log"
if ! "$MAO" --mao-passes=BBREORDER "$EXAMPLES/layout_reorder.s" \
    >"$REORDERED.raw" 2>"$BBLOG"; then
  fail "layout_reorder: BBREORDER run failed"
else
  if ! grep -q 'BBREORDER performed [1-9]' "$BBLOG"; then
    fail "layout_reorder: BBREORDER moved no blocks"
  fi
  # Drop the summary line the CLI prints ahead of the assembly.
  sed '/^mao: /d' "$REORDERED.raw" >"$REORDERED"
  # Score original vs reordered: baseline_cycles of a minimal tune run is
  # the simulated cycle count of the input as-is.
  ORIG_SCORE="$WORK/reorder_orig_score.json"
  BB_SCORE="$WORK/reorder_bb_score.json"
  if ! "$MAO" --tune --tune-budget=4 "--tune-report=$ORIG_SCORE" \
      "$EXAMPLES/layout_reorder.s" >/dev/null 2>&1 ||
     ! "$MAO" --tune --tune-budget=4 "--tune-report=$BB_SCORE" \
      "$REORDERED" >/dev/null 2>&1; then
    fail "layout_reorder: scoring runs failed"
  else
    before=$(json_field "$ORIG_SCORE" baseline_cycles)
    after=$(json_field "$BB_SCORE" baseline_cycles)
    if [ -z "$before" ] || [ -z "$after" ]; then
      fail "layout_reorder: scoring reports are missing baseline_cycles"
    elif [ "$after" -ge "$before" ]; then
      fail "layout_reorder: expected a strict win ($after vs $before cycles)"
    fi
  fi
fi

# --- instruction-side counters: present and jobs-invariant. -------------

R1="$WORK/report_jobs1.json"
R4="$WORK/report_jobs4.json"
if ! "$MAO" --tune --tune-budget=small --tune-layout-axis --mao-jobs=1 \
    "--mao-report=$R1" "$EXAMPLES/layout_hotcold.s" >/dev/null 2>&1 ||
   ! "$MAO" --tune --tune-budget=small --tune-layout-axis --mao-jobs=4 \
    "--mao-report=$R4" "$EXAMPLES/layout_hotcold.s" >/dev/null 2>&1; then
  fail "counters: report runs failed"
else
  for counter in uarch.l1i_hits uarch.l1i_misses uarch.itlb_misses \
      uarch.line_split_fetches; do
    if ! grep -q "\"$counter\":[0-9]" "$R1"; then
      fail "counters: $counter missing from --mao-report"
    fi
  done
  if ! grep -q '"uarch.itlb_misses":[1-9]' "$R1"; then
    fail "counters: expected nonzero ITLB misses on layout_hotcold"
  fi
  sed '/"timings":/,$d' "$R1" >"$R1.norm"
  sed '/"timings":/,$d' "$R4" >"$R4.norm"
  if ! cmp -s "$R1.norm" "$R4.norm"; then
    fail "counters: --mao-report differs across --mao-jobs"
  fi
fi

if [ "$FAILED" -ne 0 ]; then
  exit 1
fi
echo "layout_examples: OK"
exit 0
