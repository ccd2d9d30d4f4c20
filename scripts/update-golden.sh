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

cmake --build "$build" -j"$(nproc 2>/dev/null || echo 2)"

export BGP_THREADS=1
"$build/tools/bgpprof" --json="$golden/bgpprof.json" >/dev/null
"$build/tools/smpilint" --verbose >"$golden/smpilint.txt"

# Bench smoke goldens: stdout of every bench whose smoke test is labeled
# golden (bench/CMakeLists.txt), host-timing `[wall]` lines dropped, run
# from the directory ctest runs them in.
benches=$(ctest --test-dir "$build" -N -L golden -R '^bench_smoke_' |
          sed -n 's/^ *Test *#[0-9]*: bench_smoke_//p')
mkdir -p "$golden/bench"
for b in $benches; do
  (cd "$build/bench_build" && "$build/bench/$b" 2>/dev/null) |
    { grep -v '^\[wall\]' || true; } >"$golden/bench/$b.txt"
done

echo "update-golden.sh: regenerated bgpprof.json smpilint.txt and" \
     "$(echo "$benches" | wc -w) bench goldens"
