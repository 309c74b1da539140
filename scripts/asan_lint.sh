#!/bin/sh
# Sanitizer gate over the example corpus: configures a second build tree
# with -DMAO_SANITIZE=address,undefined (cached across runs under the
# primary build directory), builds the `mao` tool only, and runs `mao
# --lint` over every example — including the multi-worker path, where ASan
# would catch races' memory side effects and UBSan any overflow in the
# summary arithmetic. Findings are expected (the corpus seeds them);
# sanitizer reports are not. It then runs the optimizer itself, verified,
# at one and four workers: paper6 and the alignment passes, which edit the
# unit through the maintained relaxation layout, and the peep5 order
# (SCHED before ADDADD) and DCE:BBREORDER:NOPKILL:CONSTFOLD, which erase
# and move entries the kept per-function CFGs hold: a kept CFG that still
# held an erased entry would show up as a use-after-free.
#
# SKIPPED (exit 77) when the toolchain cannot build with sanitizers (some
# CI containers ship compilers without libasan).
#
#   scripts/asan_lint.sh <build-dir> [source-dir]
set -u

BUILD="${1:?usage: asan_lint.sh build-dir [source-dir]}"
SRC="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
SAN_BUILD="$BUILD/asan-lint"
EXAMPLES="$SRC/examples"

if ! cmake -S "$SRC" -B "$SAN_BUILD" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DMAO_SANITIZE=address,undefined" >/dev/null 2>&1; then
  echo "asan_lint: sanitizer configure failed; skipping" >&2
  exit 77
fi
if ! cmake --build "$SAN_BUILD" --target mao -j "$(nproc)" \
    > "$SAN_BUILD/build.log" 2>&1; then
  echo "asan_lint: sanitizer build failed; skipping (see" \
       "$SAN_BUILD/build.log)" >&2
  exit 77
fi

MAO="$SAN_BUILD/src/tools/mao"
if [ ! -x "$MAO" ]; then
  echo "asan_lint: sanitizer-built mao not found at $MAO; skipping" >&2
  exit 77
fi

# Die loudly on any sanitizer report: a distinctive exit code plus the
# report text on stderr (scanned below as a second line of defense).
ASAN_OPTIONS="exitcode=99:abort_on_error=0"
UBSAN_OPTIONS="halt_on_error=1:exitcode=99:print_stacktrace=1"
export ASAN_OPTIONS UBSAN_OPTIONS

FAILED=0
LOG="$SAN_BUILD/lint.log"

run_lint() {
  # run_lint <max-ok-exit> <description> <mao-args...>
  maxok="$1"; what="$2"; shift 2
  "$MAO" "$@" >/dev/null 2>"$LOG"
  got=$?
  if [ "$got" -gt "$maxok" ]; then
    echo "asan_lint: FAIL: $what: exit $got" >&2
    cat "$LOG" >&2
    FAILED=1
  elif grep -qE "ERROR: (Address|Undefined)Sanitizer|runtime error:" "$LOG"
  then
    echo "asan_lint: FAIL: $what: sanitizer report" >&2
    cat "$LOG" >&2
    FAILED=1
  else
    echo "asan_lint: ok: $what (exit $got)"
  fi
}

for s in "$EXAMPLES"/*.s; do
  # Exit 1 (findings) is fine; exit 99 (sanitizer) or 2 (internal) is not.
  run_lint 1 "lint $(basename "$s")" --lint "$s"
  run_lint 1 "lint $(basename "$s") (4 workers)" --lint --mao-jobs=4 "$s"
  run_lint 1 "lint $(basename "$s") (clobber-everything)" --lint \
    --lint-no-interproc "$s"
done

# The optimizer: every pass must leave a unit the verifier accepts (exit 0).
for s in "$EXAMPLES"/*.s; do
  for pipeline in ZEE:REDTEST:REDMOV:ADDADD:LOOP16:SCHED \
      LOOP16:LSDOPT:BRALIGN:INSTRUMENT "ALIGNSEL=loops[4]" \
      ZEE:REDTEST:REDMOV:SCHED:ADDADD DCE:BBREORDER:NOPKILL:CONSTFOLD; do
    for jobs in 1 4; do
      run_lint 0 "$pipeline $(basename "$s") ($jobs workers)" \
        "--mao=$pipeline" --mao-verify "--mao-jobs=$jobs" "$s"
    done
  done
done

# Baseline I/O paths under sanitizers too.
run_lint 1 "baseline capture" --lint \
  "--lint-baseline-out=$SAN_BUILD/baseline.txt" "$EXAMPLES/abi_demo.s"
run_lint 0 "baseline suppression" --lint \
  "--lint-baseline=$SAN_BUILD/baseline.txt" "$EXAMPLES/abi_demo.s"

[ "$FAILED" -eq 0 ] && echo "asan_lint: ok"
exit "$FAILED"
