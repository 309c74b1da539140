#!/bin/sh
# Rule-synthesis CLI gate: runs `mao --synth` over the example corpus and
# `mao` over the synth-seeded kernel and checks the documented contract:
#
#   - a synthesis run over the examples succeeds and emits at least one
#     rule, each carrying a strict simulator win in its
#     evidence line (win=BEFORE->AFTER with AFTER < BEFORE),
#   - the emitted table is byte-identical across --mao-jobs values (the
#     determinism contract: jobs change wall-clock, nothing else),
#   - the committed src/passes/PeepholeRules.def is byte-identical to the
#     emitted table (regenerate it with the command in its header),
#   - the emitted table re-verifies: every rule re-proves through the
#     symbolic oracle and SemanticValidator
#     (mao --synth-rules=TABLE --synth-verify),
#   - the committed compiled-in table re-verifies the same way
#     (mao --synth-verify) -- the CI gate over src/passes/PeepholeRules.def,
#   - the pinned win: on examples/synth_copy.s the tuner with the synth
#     axis beats the tuner without it strictly (the synthesized rules
#     erase redundancy the hand-written passes cannot see).
#
# Registered as the ctest entry `synth_examples`; run standalone as
#
#   scripts/synth_examples.sh path/to/mao [examples-dir]
set -u

MAO="${1:?usage: synth_examples.sh path/to/mao [examples-dir]}"
EXAMPLES="${2:-$(dirname "$0")/../examples}"
TMPDIR="${TMPDIR:-/tmp}"
TABLE="$TMPDIR/mao_synth_examples.$$.def"
TABLE2="$TMPDIR/mao_synth_examples2.$$.def"
EVIDENCE="$TMPDIR/mao_synth_examples.$$.log"
REPORT="$TMPDIR/mao_synth_examples.$$.json"
REPORT2="$TMPDIR/mao_synth_examples2.$$.json"
FAILED=0

fail() {
  echo "synth_examples: FAIL: $1" >&2
  FAILED=1
}

json_field() {
  # json_field <file> <key>  -> numeric value of "key": N
  sed -n "s/.*\"$2\": \([0-9][0-9]*\).*/\1/p" "$1" | head -n 1
}

# Synthesis over the example corpus (the same invocation that generated
# the committed table). Workload harvesting is off so the emitted rules
# stay the small general set the examples justify.
rm -f "$TABLE" "$TABLE2" "$EVIDENCE"
if ! "$MAO" --synth --synth-no-workloads "--synth-out=$TABLE" \
    "$EXAMPLES"/*.s 2>"$EVIDENCE"; then
  fail "synthesis over the example corpus failed"
  sed 's/^/synth_examples:   /' "$EVIDENCE" >&2
fi
if [ ! -s "$TABLE" ]; then
  fail "rule table was not written"
fi

rules=$(grep -c "^MAO_PEEPHOLE_RULE(SYN_" "$TABLE" 2>/dev/null || echo 0)
if [ "$rules" -ge 1 ]; then
  echo "synth_examples: ok: $rules synthesized rules emitted"
else
  fail "expected at least one synthesized rule, got $rules"
fi

# Every emitted rule's evidence line must carry a strict simulator win.
wins=$(grep -c "win=" "$EVIDENCE" 2>/dev/null || echo 0)
if [ "$wins" -ne "$rules" ]; then
  fail "expected $rules evidence lines with win=, got $wins"
fi
strict=0
for pair in $(sed -n 's/.*win=\([0-9]*\)->\([0-9]*\).*/\1:\2/p' "$EVIDENCE"); do
  before=${pair%%:*}
  after=${pair##*:}
  if [ "$after" -ge "$before" ]; then
    fail "non-strict win in evidence: $before -> $after"
  else
    strict=$((strict + 1))
  fi
done
if [ "$strict" -ge 1 ]; then
  echo "synth_examples: ok: $strict strict simulator wins in evidence"
else
  fail "expected at least one strict simulator win in the evidence lines"
fi

# Determinism: the table must be byte-identical for any --mao-jobs.
if ! "$MAO" --synth --synth-no-workloads --mao-jobs=4 "--synth-out=$TABLE2" \
    "$EXAMPLES"/*.s >/dev/null 2>&1; then
  fail "synthesis with --mao-jobs=4 failed"
fi
if ! cmp -s "$TABLE" "$TABLE2"; then
  fail "emitted table differs between --mao-jobs=1 and --mao-jobs=4"
else
  echo "synth_examples: ok: table identical across jobs"
fi

# The committed table is what this run emits.
COMMITTED="$(dirname "$0")/../src/passes/PeepholeRules.def"
if cmp -s "$TABLE" "$COMMITTED"; then
  echo "synth_examples: ok: committed table is the emitted table"
else
  fail "src/passes/PeepholeRules.def differs from the emitted table"
  diff "$COMMITTED" "$TABLE" | sed 's/^/synth_examples:   /' >&2
fi

# The emitted table re-verifies rule by rule.
if "$MAO" "--synth-rules=$TABLE" --synth-verify >/dev/null 2>&1; then
  echo "synth_examples: ok: emitted table re-verifies"
else
  fail "emitted table failed re-verification"
fi

# The committed compiled-in table re-verifies (the CI gate).
if "$MAO" --synth-verify >/dev/null 2>&1; then
  echo "synth_examples: ok: committed table re-verifies"
else
  fail "committed PeepholeRules.def failed re-verification"
fi

# The pinned win: with the synth axis the tuner finds a pipeline on the
# synth-seeded kernel that strictly beats the best synth-less pipeline.
rm -f "$REPORT" "$REPORT2"
if ! "$MAO" --tune --tune-budget=small "--tune-report=$REPORT" \
    "$EXAMPLES/synth_copy.s" >/dev/null 2>&1; then
  fail "baseline tune run on synth_copy failed"
fi
if ! "$MAO" --tune --tune-budget=small --tune-synth-axis \
    "--tune-report=$REPORT2" "$EXAMPLES/synth_copy.s" >/dev/null 2>&1; then
  fail "synth-axis tune run on synth_copy failed"
fi
base=$(json_field "$REPORT" tuned_cycles)
withsynth=$(json_field "$REPORT2" tuned_cycles)
if [ -z "$base" ] || [ -z "$withsynth" ]; then
  fail "tune reports are missing tuned_cycles"
elif [ "$withsynth" -lt "$base" ]; then
  echo "synth_examples: ok: pinned win on synth_copy ($withsynth < $base cycles)"
else
  fail "synth axis did not win on synth_copy (with=$withsynth base=$base)"
fi

rm -f "$TABLE" "$TABLE2" "$EVIDENCE" "$REPORT" "$REPORT2"
[ "$FAILED" -eq 0 ] && echo "synth_examples: ok"
exit "$FAILED"
