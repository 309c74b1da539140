#!/bin/sh
# Output-failure gate: aims each output `mao` writes at /dev/full and
# checks the one rule for lost output. The run fails with its documented
# exit code (3, or 2 under --lint) and prints exactly one failure line,
# the one that names the lost write ("cannot write ..."):
#
#   - the assembly on stdout, plain and through --cache-dir,
#   - the assembly through an ASM=o[FILE] pass,
#   - --mao-report, --mao-trace-out, --mao-sarif (under --lint),
#     --tune-report, --synth-out and --lint-baseline-out.
#
# Registered as the ctest entry `output_errors`; run standalone as
#
#   scripts/output_errors.sh path/to/mao [examples-dir]
#
# Exits 77 (ctest SKIP) where /dev/full does not exist.
set -u

MAO="${1:?usage: output_errors.sh path/to/mao [examples-dir]}"
EXAMPLES="${2:-$(dirname "$0")/../examples}"
TMPDIR="${TMPDIR:-/tmp}"
ERR="$TMPDIR/mao_output_errors.$$.err"
CACHE="$TMPDIR/mao_output_errors.$$.cache"
FAILED=0

if [ ! -w /dev/full ]; then
  echo "output_errors: SKIP: no writable /dev/full" >&2
  exit 77
fi

cleanup() { rm -rf "$ERR" "$CACHE"; }
trap cleanup EXIT

# expect NAME CODE STDOUT ARGS...: runs mao ARGS with stdout sent to
# STDOUT and requires exit CODE, one "cannot write" line on stderr, and
# no other error line.
expect() {
  NAME=$1 CODE=$2 OUT=$3
  shift 3
  "$MAO" "$@" >"$OUT" 2>"$ERR"
  GOT=$?
  WRITES=$(grep -c "cannot write" "$ERR")
  OTHERS=$(grep -v "cannot write" "$ERR" | grep -c ": error:")
  if [ "$GOT" -ne "$CODE" ] || [ "$WRITES" -ne 1 ] || [ "$OTHERS" -ne 0 ]; then
    echo "output_errors: FAIL: $NAME: exit $GOT (want $CODE)," \
      "$WRITES 'cannot write' line(s), $OTHERS other error line(s):" >&2
    sed 's/^/  | /' "$ERR" >&2
    FAILED=1
  else
    echo "output_errors: ok: $NAME: exit $GOT: $(grep "cannot write" "$ERR")"
  fi
}

IN="$EXAMPLES/clean.s"
expect "stdout" 3 /dev/full "$IN"
expect "--cache-dir stdout" 3 /dev/full --cache-dir="$CACHE" "$IN"
expect "ASM=o[/dev/full]" 3 /dev/null "--mao=ZEE:ASM=o[/dev/full]" "$IN"
expect "--mao-report" 3 /dev/null --mao-report=/dev/full "$IN"
expect "--mao-trace-out" 3 /dev/null --mao-trace-out=/dev/full "$IN"
expect "--mao-sarif under --lint" 2 /dev/null --lint --mao-sarif=/dev/full "$IN"
expect "--tune-report" 3 /dev/null --tune --tune-budget=small \
  --tune-report=/dev/full "$EXAMPLES/tune_alias.s"
expect "--synth-out" 3 /dev/null --synth --synth-no-workloads \
  --synth-out=/dev/full "$EXAMPLES/synth_copy.s"
expect "--lint-baseline-out" 2 /dev/null --lint \
  --lint-baseline-out=/dev/full "$IN"

# Writing to /dev/null through ASM=o[...] stays a no-op that succeeds.
if ! "$MAO" "--mao=ZEE:ASM=o[/dev/null]" "$IN" >/dev/null 2>"$ERR"; then
  echo "output_errors: FAIL: ASM=o[/dev/null] failed" >&2
  FAILED=1
fi

if [ "$FAILED" -ne 0 ]; then
  exit 1
fi
echo "output_errors: all outputs fail loudly on a full disk"
