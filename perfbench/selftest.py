#!/usr/bin/env python3
"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at its smallest size (--size small),
untraced and traced, with the default seed, from the repository root, and
checks that:
  1. every metric BENCHMARK.json names prints, with its unit;
  2. the correctness gate passes (correct, no failed operation, and the
     default-seed fingerprint equals the recorded one);
  3. the traced spans nest inside their parents, share their pass id, and
     have self times >= 0;
  4. nothing is written into the source tree (only .bench_build/ changes).
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS = ROOT / ".bench_build" / "perfbench" / "spans"
EPS = 1e-9


def tree_state():
    """(path, size, mtime) of every file outside the build directory."""
    state = set()
    for p in ROOT.rglob("*"):
        rel = p.relative_to(ROOT)
        if rel.parts[0] in (".bench_build", ".git") or not p.is_file():
            continue
        st = p.stat()
        state.add((str(rel), st.st_size, st.st_mtime_ns))
    return state


def check(cond, what):
    if not cond:
        sys.exit("selftest FAILED: " + what)


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.2", "--trace", str(trace),
           "--size", "small"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    check(lines, "%s trace=%d printed nothing; stderr:\n%s"
          % (workload, trace, r.stderr[-2000:]))
    result = json.loads(lines[-1])
    check(r.returncode == 0 and result["correct"] and result["failed"] == 0,
          "%s trace=%d: correctness gate failed:\n%s"
          % (workload, trace, "\n".join(l for l in lines if "FAIL" in l)))
    check(result["attempted"] >= 1, "%s: no operation attempted" % workload)
    return result


def check_metrics(workload, result, specs):
    for m in specs:
        got = result["metrics"].get(m["name"])
        check(got is not None, "%s: metric %s missing" % (workload, m["name"]))
        check(got["unit"] == m["unit"], "%s: %s unit %r, expected %r"
              % (workload, m["name"], got["unit"], m["unit"]))
        check(isinstance(got["value"], (int, float)),
              "%s: %s is not a number" % (workload, m["name"]))


def check_spans(workload):
    spans = json.loads((SPANS / ("%s-small-seed1.json" % workload))
                       .read_text())
    check(spans, "%s: no spans recorded" % workload)
    for s in spans:
        check(s["end"] >= s["start"], "%s: span %d ends before it starts"
              % (workload, s["id"]))
        check(s["self"] >= -EPS, "%s: span %d has negative self time"
              % (workload, s["id"]))
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            check(p["start"] <= s["start"] + EPS and s["end"] <= p["end"] + EPS,
                  "%s: span %d (%s) is not inside its parent %d"
                  % (workload, s["id"], s["name"], p["id"]))
            check(p["pass"] == s["pass"],
                  "%s: span %d has another pass id than its parent"
                  % (workload, s["id"]))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = tree_state()
    for w in (w["name"] for w in bench["workloads"]):
        check_metrics(w, run(w, 0), bench["end_to_end"])
        check_metrics(w, run(w, 1), bench["per_layer"])
        check_spans(w)
        print("selftest: %s ok" % w)
    after = tree_state()
    check(before == after, "files changed outside .bench_build: %s"
          % sorted(before ^ after))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
