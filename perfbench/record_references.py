"""Record the reference outputs that every benchmark run checks against.

    python3 perfbench/record_references.py [--size full|tiny] [--workload W]

Runs each workload once per input variant and writes the config, the SHA-256
of each output file and the key outputs to
``perfbench/references/<size>/<workload>.json``.  Record only from a commit
whose outputs are trusted: later runs are judged against these files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
import workloads as wl


def record(workload: str, size: str) -> None:
    variants = {}
    for v in range(wl.VARIANTS):
        runner = run.Runner(workload, v, size, time.perf_counter())
        out = os.path.join(runner.dir, "out")
        res = runner.spawn(wl.cli_calls(workload, runner.config, out), trace=False)
        if res["rc"] != 0:
            sys.exit(f"{workload} variant {v} failed; see {res['log']}")
        variants[str(v)] = {
            "config": wl.make_config(workload, v, size),
            "sha256": wl.output_hashes(workload, out),
            "key": wl.key_outputs(workload, out),
        }
        took = sum(c["t1"] - c["t0"] for c in res["calls"])
        print(f"{workload} {size} variant {v}: {took:.2f} s", flush=True)
    path = wl.reference_path(workload, size)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"variants": variants}, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--size", choices=tuple(wl.GRIDS), default="full")
    p.add_argument("--workload", choices=wl.WORKLOADS)
    args = p.parse_args()
    for workload in [args.workload] if args.workload else wl.WORKLOADS:
        record(workload, args.size)


if __name__ == "__main__":
    main()
