#!/bin/sh
# Failure-report gate: a failed pass prints one line per failed pass or
# function, under every --mao-on-error policy, and nothing repeats it; so
# do a per-pass verifier issue and a parse error, with and without the
# artifact cache. Runs `mao` on examples/clean.s (two functions) and on two
# small generated inputs, and counts the stderr lines other than the parse
# summary ("mao: N lines, ...").
#
# Registered as the ctest entry `failure_lines`; run standalone as
#
#   scripts/failure_lines.sh path/to/mao [examples-dir]
set -u

MAO="${1:?usage: failure_lines.sh path/to/mao [examples-dir]}"
EXAMPLES="${2:-$(dirname "$0")/../examples}"
TMPDIR="${TMPDIR:-/tmp}"
WORK="$TMPDIR/mao_failure_lines.$$"
ERR="$WORK/err"
FAILED=0
mkdir -p "$WORK" || exit 1
trap 'rm -rf "$WORK"' EXIT

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

# An unterminated string literal is a parse error (exit 2), and a
# reference to an undefined local label fails the verifier after the pass.
BAD="$WORK/unterminated.s"
UNDEF="$WORK/undefined_label.s"
printf '\t.text\nf:\n\t.string "abc\n' >"$BAD"
printf '\t.text\nf:\n\tleaq .Lnowhere(%%rip), %%rax\n\tret\n' >"$UNDEF"
CACHE="--cache-dir=$WORK/cache"
expect "parse error" 2 1 "$BAD"
expect "parse error, cache" 2 1 "$CACHE" "$BAD"
expect "verifier after a pass" 3 1 --mao=ZEE --mao-verify "$UNDEF"
expect "verifier after a pass, cache" 3 1 "$CACHE" --mao=ZEE --mao-verify \
  "$UNDEF"
expect "abort, cache" 3 1 "$CACHE" --mao=ZEE "$INJECT" "$IN"

if [ "$FAILED" -ne 0 ]; then
  exit 1
fi
echo "failure_lines: every failure prints one line"
