#!/bin/sh
# Tree hygiene gate: fails when generated files are tracked by git, or
# when a source file under src/ opens a file itself (std::ofstream,
# std::ifstream, or fopen with any mode) anywhere but support/FileIO.cpp.
#
# The repo once tracked its whole build/ directory (865 files of CMake
# droppings and object code), which made every rebuild dirty the tree and
# bloated diffs. This check keeps that from regressing; it runs as a ctest
# entry (check_tree) and can be run standalone from anywhere inside the
# repo.
set -eu

cd "$(dirname "$0")/.."

if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  echo "check_tree: not a git checkout; nothing to check" >&2
  exit 0
fi

BAD=$(git ls-files -- 'build/*' 'build-*/*' '*.o' '*.a' | head -20)
if [ -n "$BAD" ]; then
  echo "check_tree: generated files are tracked by git:" >&2
  echo "$BAD" >&2
  echo "check_tree: run 'git rm -r --cached <path>' and commit" >&2
  exit 1
fi

# One writer: writeWholeFile checks every open, write, flush and close, so
# a full disk fails the run instead of leaving a short file behind.
WRITERS=$(grep -rnE --include='*.cpp' --include='*.h' \
  'std::ofstream|fopen *\([^;]*, *"[^"]*[wa]' src |
  grep -v '^src/support/FileIO.cpp:' | head -20)
if [ -n "$WRITERS" ]; then
  echo "check_tree: files under src/ open files for writing:" >&2
  echo "$WRITERS" >&2
  echo "check_tree: write through writeWholeFile (support/FileIO.h)" >&2
  exit 1
fi
# One reader: readWholeFile reads a file in one checked read, so an
# unreadable input is reported one way.
READERS=$(grep -rnE --include='*.cpp' --include='*.h' \
  'std::ifstream|fopen *\([^;]*, *"[^"]*r' src |
  grep -v '^src/support/FileIO.cpp:' | head -20)
if [ -n "$READERS" ]; then
  echo "check_tree: files under src/ open files for reading:" >&2
  echo "$READERS" >&2
  echo "check_tree: read through readWholeFile (support/FileIO.h)" >&2
  exit 1
fi
echo "check_tree: no generated files tracked, one file writer, one reader"
