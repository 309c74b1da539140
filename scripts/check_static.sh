#!/bin/sh
# Start-up gate: fails when a shipped binary needs the dynamic loader.
#
# Usage: check_static.sh BINARY...
#
# `mao` runs once per translation unit, so loading and relocating shared
# libraries is paid per file. Where the configure-time link check found a
# static libc, the build links `mao` and `maod` with -static; this check
# (the static_tools ctest) fails if either binary has a program
# interpreter (PT_INTERP) or a NEEDED dynamic entry, so a later link edit
# cannot quietly bring the loader back. Exits 77 (skipped) without readelf.
set -eu

if ! command -v readelf >/dev/null 2>&1; then
  echo "check_static: readelf not found; skipping" >&2
  exit 77
fi

STATUS=0
for BIN in "$@"; do
  if readelf -lW "$BIN" | grep -q '^ *INTERP '; then
    echo "check_static: $BIN has a program interpreter (PT_INTERP)" >&2
    STATUS=1
  fi
  if readelf -dW "$BIN" | grep -q '(NEEDED)'; then
    echo "check_static: $BIN needs shared libraries:" >&2
    readelf -dW "$BIN" | grep '(NEEDED)' >&2
    STATUS=1
  fi
done
[ "$STATUS" -eq 0 ] && echo "check_static: no loader, no shared libraries: $*"
exit "$STATUS"
