#!/usr/bin/env bash
# The one-command gate: warning-free default build + full ctest, a
# warning-free sanitizer build with tier-1 and golden outputs, source
# lint, the smpilint paper-scenario sweep, and the bgpprof observability
# smoke (profile determinism + invariants).  Green here means shippable.
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

echo "==> [1/6] default build (no compiler warnings) + full ctest"
cmake --preset default >/dev/null
# A clean rebuild, so every translation unit's warnings reach the log.
# The gate lives here, not in -Werror: other builds of src/ (perfbench's
# among them) must never fail on a warning.
build_log="$repo_root/build/check-build.log"
cmake --build --preset default -j"$jobs" --clean-first 2>&1 | tee "$build_log"
if grep -q "warning:" "$build_log"; then
  echo "check.sh: the default build has compiler warnings:" >&2
  grep "warning:" "$build_log" >&2
  exit 1
fi
ctest --preset default -j"$jobs"

if [[ $skip_sanitize -eq 0 ]]; then
  echo "==> [2/6] ASan+UBSan build (no compiler warnings) + tier-1 + golden"
  cmake --preset sanitize >/dev/null
  sanitize_log="$repo_root/build-sanitize/check-build.log"
  cmake --build --preset sanitize -j"$jobs" --clean-first 2>&1 |
    tee "$sanitize_log"
  if grep -q "warning:" "$sanitize_log"; then
    echo "check.sh: the sanitize build has compiler warnings:" >&2
    grep "warning:" "$sanitize_log" >&2
    exit 1
  fi
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
