#!/bin/sh
# Service-mode CLI gate: exercises the persistent artifact cache and the
# maod daemon over the example kernels and checks the documented contract:
#
#   - a --cache-dir run emits bytes identical to a plain run (cold miss),
#     and the warm hit is byte-identical again, for every --mao-jobs value,
#   - --cache-verify (recompute-and-compare on every hit) passes,
#   - --mao-report written from the cache path is byte-identical between
#     the cold and the warm run (the stored per-run report is authoritative),
#   - injected filesystem faults (short write, failed rename, read-side
#     bit flip) never change the output bytes — they only cost a store or
#     force a quarantine-and-recompute,
#   - a maod daemon serves `mao --connect` requests with the same bytes,
#     stops cleanly on SIGTERM, and removes its socket file,
#   - with no daemon listening, `mao --connect` falls back to a local run
#     and still produces the same bytes,
#   - layout-driven output travels intact: on an input whose LOOP16
#     padding depends on how branches relax, --cache-dir (cold and warm)
#     and --connect reproduce the direct run's bytes,
#   - --synth-rules reaches the result: with a rule table that has no
#     synth rules, --cache-dir and --connect reproduce the direct bytes on
#     synth_copy.s after a built-in-table run was stored,
#   - the removed --mao-relax flag is refused as an unknown option: one
#     stderr line and the usage exit code, 1.
#
# Registered as the ctest entry `serve_examples`; run standalone as
#
#   scripts/serve_examples.sh path/to/mao path/to/maod [examples-dir]
set -u

MAO="${1:?usage: serve_examples.sh path/to/mao path/to/maod [examples-dir]}"
MAOD="${2:?usage: serve_examples.sh path/to/mao path/to/maod [examples-dir]}"
EXAMPLES="${3:-$(dirname "$0")/../examples}"
TMPDIR="${TMPDIR:-/tmp}"
WORK="$TMPDIR/mao_serve_examples.$$"
PIPELINE="zee,redtest"
FAILED=0

mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "serve_examples: FAIL: $1" >&2
  FAILED=1
}

for kernel in clean tune_fig1 tune_lsd tune_alias; do
  src="$EXAMPLES/$kernel.s"
  cache="$WORK/cache_$kernel"
  direct="$WORK/$kernel.direct.s"

  if ! "$MAO" "--mao-passes=$PIPELINE" "$src" >"$direct" 2>/dev/null; then
    fail "$kernel: plain run failed"
    continue
  fi

  # Cold miss, then warm hit: both byte-identical to the plain run, and
  # the per-run reports byte-identical to each other.
  if ! "$MAO" "--mao-passes=$PIPELINE" "--cache-dir=$cache" \
      "--mao-report=$WORK/$kernel.cold.json" \
      "$src" >"$WORK/$kernel.cold.s" 2>/dev/null; then
    fail "$kernel: cold cache run failed"
    continue
  fi
  if ! "$MAO" "--mao-passes=$PIPELINE" "--cache-dir=$cache" \
      "--mao-report=$WORK/$kernel.warm.json" \
      "$src" >"$WORK/$kernel.warm.s" 2>/dev/null; then
    fail "$kernel: warm cache run failed"
    continue
  fi
  cmp -s "$direct" "$WORK/$kernel.cold.s" || \
    fail "$kernel: cold cached output differs from the plain run"
  cmp -s "$direct" "$WORK/$kernel.warm.s" || \
    fail "$kernel: warm cached output differs from the plain run"
  cmp -s "$WORK/$kernel.cold.json" "$WORK/$kernel.warm.json" || \
    fail "$kernel: per-run report differs between cold and warm"

  # Worker count must not affect the artifact (hit or miss).
  if ! "$MAO" "--mao-passes=$PIPELINE" "--cache-dir=$cache" --mao-jobs=4 \
      "$src" >"$WORK/$kernel.jobs4.s" 2>/dev/null; then
    fail "$kernel: --mao-jobs=4 cache run failed"
  else
    cmp -s "$direct" "$WORK/$kernel.jobs4.s" || \
      fail "$kernel: cached output differs under --mao-jobs=4"
  fi

  # Paranoia mode: recompute every hit and compare against stored bytes.
  if ! "$MAO" "--mao-passes=$PIPELINE" "--cache-dir=$cache" --cache-verify \
      "$src" >/dev/null 2>&1; then
    fail "$kernel: --cache-verify failed (stored bytes diverge from recompute)"
  fi
done
[ "$FAILED" -eq 0 ] && echo "serve_examples: ok: cold/warm/jobs byte-identity"

# Injected filesystem faults must never escape as wrong output bytes.
src="$EXAMPLES/tune_fig1.s"
direct="$WORK/tune_fig1.direct.s"
for spec in fswrite:1000 fsrename:1000; do
  cache="$WORK/cache_fault_$(echo "$spec" | tr -d ':')"
  if ! "$MAO" "--mao-passes=$PIPELINE" "--cache-dir=$cache" \
      "--mao-fault-inject=$spec@7" "$src" >"$WORK/fault.s" 2>/dev/null; then
    fail "$spec: injected run failed"
    continue
  fi
  cmp -s "$direct" "$WORK/fault.s" || \
    fail "$spec: injected store fault changed the output bytes"
done
# Read-side corruption: seed an entry cleanly, then flip bits on read —
# the entry is quarantined and the recompute serves correct bytes.
cache="$WORK/cache_fault_read"
"$MAO" "--mao-passes=$PIPELINE" "--cache-dir=$cache" "$src" \
  >/dev/null 2>&1 || fail "cacheread: seeding run failed"
if ! "$MAO" "--mao-passes=$PIPELINE" "--cache-dir=$cache" \
    --mao-fault-inject=cacheread:1000@7 "$src" >"$WORK/fault.s" 2>/dev/null; then
  fail "cacheread: injected run failed"
else
  cmp -s "$direct" "$WORK/fault.s" || \
    fail "cacheread: injected read corruption changed the output bytes"
  [ -d "$cache/quarantine" ] || \
    fail "cacheread: corrupt entry was not quarantined"
fi
[ "$FAILED" -eq 0 ] && echo "serve_examples: ok: injected faults contained"

# An input whose LOOP16 padding depends on relaxation: `jne .L0` stays
# rel8 only under gas's in-order passes, and at that layout a 12-byte pad
# puts the .L3 loop on a 16-byte boundary.
nops() {
  i=0
  while [ "$i" -lt "$1" ]; do printf '\tnop\n'; i=$((i + 1)); done
}
loopsrc="$WORK/loop.s"
{
  printf '\t.text\n\t.globl\tf\n\t.type\tf, @function\nf:\n'
  printf '\ttestl\t%%edi, %%edi\n\tjne\t.LFAR\n'
  nops 10; printf '.L0:\n'; nops 94; printf '\t.p2align 4\n'; nops 29
  printf '\tjne\t.L0\n\tmovl\t$100, %%ecx\n.L3:\n'
  printf '\taddl\t$1, %%eax\n\taddl\t$1, %%eax\n\taddl\t$1, %%eax\n'
  printf '\tsubl\t$1, %%ecx\n\tjne\t.L3\n'
  nops 300; printf '.LFAR:\n\tret\n\t.size\tf, .-f\n'
} >"$loopsrc"
"$MAO" --mao=LOOP16 "$loopsrc" >"$WORK/loop.direct.s" 2>/dev/null || \
  fail "loop16: direct run failed"
grep -q "$(printf '^\tnop12$')" "$WORK/loop.direct.s" || \
  fail "loop16: the direct run did not pad the loop by 12 bytes"
cache="$WORK/cache_loop"
for run in cold warm; do
  "$MAO" --mao=LOOP16 "--cache-dir=$cache" "$loopsrc" \
    >"$WORK/loop.$run.s" 2>/dev/null || fail "loop16: $run cache run failed"
  cmp -s "$WORK/loop.direct.s" "$WORK/loop.$run.s" || \
    fail "loop16: $run --cache-dir run did not reproduce the direct bytes"
done

# The relax-mode flag is gone: an unknown option, one line, exit 1.
"$MAO" --mao-relax=optimal "$loopsrc" >/dev/null 2>"$WORK/relax.err"
rc=$?
[ "$rc" -eq 1 ] || fail "--mao-relax=optimal exited $rc, want 1"
[ "$(wc -l <"$WORK/relax.err")" -eq 1 ] && \
  grep -q "unknown option '--mao-relax=optimal'" "$WORK/relax.err" || \
  fail "--mao-relax=optimal: want one unknown-option line, got: $(cat "$WORK/relax.err")"

# A rule table with no synth rules drops the built-in synth rules.
rules="$WORK/no-synth-rules.def"
: >"$rules"
synthsrc="$EXAMPLES/synth_copy.s"
"$MAO" --mao=SYNTH "$synthsrc" >"$WORK/synth.builtin.s" 2>/dev/null || \
  fail "synth-rules: direct built-in run failed"
"$MAO" --mao=SYNTH "--synth-rules=$rules" "$synthsrc" \
  >"$WORK/synth.direct.s" 2>/dev/null || fail "synth-rules: direct run failed"
cmp -s "$WORK/synth.builtin.s" "$WORK/synth.direct.s" && \
  fail "synth-rules: the empty table did not change the output"
cache="$WORK/cache_synth"
"$MAO" --mao=SYNTH "--cache-dir=$cache" "$synthsrc" >/dev/null 2>&1 || \
  fail "synth-rules: built-in cache run failed"
"$MAO" --mao=SYNTH "--synth-rules=$rules" "--cache-dir=$cache" "$synthsrc" \
  >"$WORK/synth.cached.s" 2>/dev/null || fail "synth-rules: cache run failed"
cmp -s "$WORK/synth.direct.s" "$WORK/synth.cached.s" || \
  fail "synth-rules: --cache-dir did not reproduce the direct bytes"
[ "$FAILED" -eq 0 ] && echo "serve_examples: ok: --cache-dir reproduces LOOP16 and keys the rule table"

# Daemon round trip: cold and warm through maod are byte-identical to the
# plain run; SIGTERM stops the daemon cleanly and removes the socket.
SOCK="$WORK/maod.sock"
"$MAOD" "--socket=$SOCK" "--cache-dir=$WORK/cache_daemon" \
  2>"$WORK/maod.log" &
MAOD_PID=$!
tries=0
while [ ! -S "$SOCK" ] && [ "$tries" -lt 100 ]; do
  sleep 0.05
  tries=$((tries + 1))
done
[ -S "$SOCK" ] || fail "daemon did not create its socket"

if ! "$MAO" "--mao-passes=$PIPELINE" "--connect=$SOCK" \
    "$src" >"$WORK/daemon.cold.s" 2>/dev/null; then
  fail "daemon: cold --connect run failed"
fi
if ! "$MAO" "--mao-passes=$PIPELINE" "--connect=$SOCK" \
    "$src" >"$WORK/daemon.warm.s" 2>/dev/null; then
  fail "daemon: warm --connect run failed"
fi
cmp -s "$direct" "$WORK/daemon.cold.s" || \
  fail "daemon: cold output differs from the plain run"
cmp -s "$direct" "$WORK/daemon.warm.s" || \
  fail "daemon: warm output differs from the plain run"

# The daemon lays LOOP16 out as a direct run does; it first stores the
# built-in-table result, which the --synth-rules request must not get.
"$MAO" --mao=LOOP16 "--connect=$SOCK" "$loopsrc" \
  >"$WORK/loop.daemon.s" 2>/dev/null || fail "daemon: LOOP16 --connect run failed"
cmp -s "$WORK/loop.direct.s" "$WORK/loop.daemon.s" || \
  fail "daemon: --connect did not reproduce the direct LOOP16 bytes"
"$MAO" --mao=SYNTH "--connect=$SOCK" "$synthsrc" >/dev/null 2>&1 || \
  fail "daemon: built-in-table --connect run failed"
"$MAO" --mao=SYNTH "--synth-rules=$rules" "--connect=$SOCK" "$synthsrc" \
  >"$WORK/synth.daemon.s" 2>/dev/null || fail "daemon: --synth-rules --connect run failed"
cmp -s "$WORK/synth.direct.s" "$WORK/synth.daemon.s" || \
  fail "daemon: --connect did not reproduce the direct --synth-rules bytes"

kill -TERM "$MAOD_PID" 2>/dev/null
wait "$MAOD_PID"
MAOD_RC=$?
[ "$MAOD_RC" -eq 0 ] || fail "daemon exited $MAOD_RC on SIGTERM (log: $(cat "$WORK/maod.log"))"
[ ! -e "$SOCK" ] || fail "daemon left its socket file behind"
[ "$FAILED" -eq 0 ] && echo "serve_examples: ok: daemon round trip"

# No daemon: --connect falls back to a local run with the same bytes.
if ! "$MAO" "--mao-passes=$PIPELINE" "--connect=$WORK/no-such.sock" \
    "$src" >"$WORK/fallback.s" 2>/dev/null; then
  fail "fallback: --connect without a daemon failed"
else
  cmp -s "$direct" "$WORK/fallback.s" || \
    fail "fallback: local-fallback output differs from the plain run"
fi

[ "$FAILED" -eq 0 ] && echo "serve_examples: ok"
exit "$FAILED"
