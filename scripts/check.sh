#!/usr/bin/env bash
# The one-command gate: default build + full ctest, sanitizer tier-1 and
# golden outputs, source lint, the smpilint paper-scenario sweep, and the
# bgpprof observability smoke (profile determinism + invariants).  Green
# here means shippable.
#
# Usage: scripts/check.sh [--skip-sanitize] [--skip-tsan]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

skip_sanitize=0
skip_tsan=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) skip_sanitize=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    *) echo "check.sh: unknown option $arg" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

echo "==> [1/6] default build + full ctest"
cmake --preset default >/dev/null
cmake --build --preset default -j"$jobs"
ctest --preset default -j"$jobs"

if [[ $skip_sanitize -eq 0 ]]; then
  echo "==> [2/6] ASan+UBSan tier-1 + golden"
  cmake --preset sanitize >/dev/null
  cmake --build --preset sanitize -j"$jobs"
  ctest --preset sanitize -j"$jobs"
else
  echo "==> [2/6] sanitize: skipped"
fi

if [[ $skip_tsan -eq 0 ]]; then
  echo "==> [3/6] TSan tier-1 + golden"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$jobs"
  ctest --preset tsan -j"$jobs"
else
  echo "==> [3/6] tsan: skipped"
fi

echo "==> [4/6] source lint"
scripts/lint.sh "$repo_root/build"

echo "==> [5/6] smpilint over the paper scenarios"
"$repo_root/build/tools/smpilint" --group=paper

echo "==> [6/6] bgpprof observability smoke (halo + collectives)"
"$repo_root/build/tools/bgpprof" --only=fig2_halo_isend --selfcheck
"$repo_root/build/tools/bgpprof" --only=fig3_imb_collectives --selfcheck

echo "check.sh: all gates green"
