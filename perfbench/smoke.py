"""Smoke test of the benchmark itself, on tiny grids, in well under a minute.

    python3 perfbench/smoke.py

For every workload it makes one untraced and one traced run and checks that
each run is correct, that the printed metrics are exactly the ones
BENCHMARK.json lists, each with its unit, and that in every traced call the
spans' self times sum to the call's run_s as measured around
``mfglab.cli.main``.  Exits 1 with a list of the problems otherwise.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import sys

import run
import tracer
import workloads as wl

# Spans and the child's own timer read the same clock; what separates them
# is the wrapper's bookkeeping around the root call.
SUM_TOLERANCE_S = 2e-3


def check_spans(result_path: str) -> list[str]:
    with open(result_path) as fh:
        res = json.load(fh)
    if not res.get("spans"):
        return []
    run_s = sum(c["t1"] - c["t0"] for c in res["calls"])
    selfs = tracer.self_times(res["spans"])
    problems = []
    if abs(sum(selfs) - run_s) > SUM_TOLERANCE_S:
        problems.append(f"{result_path}: self times sum to {sum(selfs):.6f} s, run_s {run_s:.6f} s")
    if min(selfs) < -1e-9:
        problems.append(f"{result_path}: negative self time {min(selfs):.3g} s")
    return problems


def main() -> int:
    spec = run.benchmark_spec()
    problems = []
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                               "--trace", str(trace), "--size", "tiny"])
            label = f"{workload} trace {trace}"
            lines = buf.getvalue().splitlines()
            if rc != 0 or not lines:
                problems.append(f"{label}: exit {rc}")
                continue
            print(lines[0])
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} calls failed")
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if trace:
                for path in sorted(glob.glob(os.path.join(run.WORK, "run", workload, "c*.json"))):
                    if not path.endswith(".calls.json"):
                        problems.extend(check_spans(path))
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
