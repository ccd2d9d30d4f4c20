#!/usr/bin/env bash
# Regenerates the golden outputs under tests/golden/ from a build of the
# current tree.  This is the only way to change them: a change that moves
# a number reruns this script and says why in CHANGES.md.
#
# Usage: scripts/update-golden.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo_root/build}"
golden="$repo_root/tests/golden"

cmake --build "$build" -j"$(nproc 2>/dev/null || echo 2)" \
  --target bgpprof smpilint

export BGP_THREADS=1
"$build/tools/bgpprof" --json="$golden/bgpprof.json" >/dev/null
"$build/tools/smpilint" --verbose >"$golden/smpilint.txt"

echo "update-golden.sh: regenerated $(ls "$golden" | grep -v '\.cmake$' | tr '\n' ' ')"
