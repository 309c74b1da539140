#!/bin/sh
# Failure-report gate: a failed pass prints one line per failed pass or
# function, under every --mao-on-error policy, and nothing repeats it.
# Runs `mao` on examples/clean.s (two functions) and counts the stderr
# lines other than the parse summary ("mao: N lines, ...").
#
# Registered as the ctest entry `failure_lines`; run standalone as
#
#   scripts/failure_lines.sh path/to/mao [examples-dir]
set -u

MAO="${1:?usage: failure_lines.sh path/to/mao [examples-dir]}"
EXAMPLES="${2:-$(dirname "$0")/../examples}"
TMPDIR="${TMPDIR:-/tmp}"
ERR="$TMPDIR/mao_failure_lines.$$.err"
FAILED=0
trap 'rm -f "$ERR"' EXIT

# expect NAME CODE LINES ARGS...: runs mao ARGS and requires exit CODE
# and exactly LINES stderr lines besides the parse summary.
expect() {
  NAME=$1 CODE=$2 LINES=$3
  shift 3
  "$MAO" "$@" >/dev/null 2>"$ERR"
  GOT=$?
  N=$(grep -vc '^mao: [0-9]* lines, ' "$ERR")
  if [ "$GOT" -ne "$CODE" ] || [ "$N" -ne "$LINES" ]; then
    echo "failure_lines: FAIL: $NAME: exit $GOT (want $CODE)," \
      "$N line(s) (want $LINES):" >&2
    sed 's/^/  | /' "$ERR" >&2
    FAILED=1
  else
    echo "failure_lines: ok: $NAME: exit $GOT, $N line(s)"
  fi
}

IN="$EXAMPLES/clean.s"
INJECT=--mao-fault-inject=pass:1000@1
expect "abort" 3 1 --mao=ZEE "$INJECT" "$IN"
expect "rollback" 0 1 --mao=ZEE --mao-on-error=rollback "$INJECT" "$IN"
expect "skip" 0 1 --mao=ZEE --mao-on-error=skip "$INJECT" "$IN"
expect "missing profile, per function" 3 2 \
  "--mao=INVPREF=profile[/nonexistent/profile]" "$IN"
expect "missing profile, rollback" 0 2 --mao-on-error=rollback \
  "--mao=INVPREF=profile[/nonexistent/profile]" "$IN"

if [ "$FAILED" -ne 0 ]; then
  exit 1
fi
echo "failure_lines: every failure prints one line"
