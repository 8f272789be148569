"""mfglab benchmark: drives the CLI the way users do, one fresh interpreter
per call, and prints end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep-1d --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload

Run from anywhere; the package is taken from ``src/`` next to this
directory.  Standard library only.  Each call runs ``perfbench/child.py`` in
a new interpreter with ``MFGLAB_THREADS=1`` and one BLAS thread, one process
at a time (a closed loop with one client).  A run starts calls until the
next one would end after ``--seconds``, checks each call's outputs against
the recorded references, and prints a summary and, as its last line, one
JSON object.  ``--trace 1`` alternates traced and untraced calls and reports
the per-layer metrics of the traced ones.  Every run also writes a result
file with the raw samples and an environment record under ``.bench_work/``.

Workloads, their reasons and the layer predictions: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Import-only calls per untraced run, on top of the import every call pays.
SETUP_PROBES = 3
# Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
THREAD_ENV = {
    "MFGLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class SetupError(RuntimeError):
    """The program cannot be run at all from this checkout."""


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(versions: dict) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        **versions,
    }


class Runner:
    """Spawns child calls for one workload run and keeps the deadline."""

    def __init__(self, workload: str, seed: int, size: str, start: float):
        self.workload, self.seed, self.size, self.start = workload, seed, size, start
        self.dir = os.path.join(WORK, "run", workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w") as fh:
            json.dump(wl.make_config(workload, seed, size), fh, indent=2)
        self.env = child_env()
        self.count = 0

    def spawn(self, calls: list, trace: bool) -> dict:
        """Run one child; returns its result with ``setup_s`` and ``rc``."""
        self.count += 1
        tag = f"c{self.count}"
        result_path = os.path.join(self.dir, f"{tag}.json")
        calls_path = os.path.join(self.dir, f"{tag}.calls.json")
        with open(calls_path, "w") as fh:
            json.dump(calls, fh)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, calls_path,
               "1" if trace else "0"]
        with open(os.path.join(self.dir, f"{tag}.log"), "w") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.dir, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=max(1.0, DEADLINE_S - (t_spawn - self.start)))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = "timeout"
        try:
            with open(result_path) as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            res = {"calls": [], "t_ready": None, "spans": None}
        res["rc"] = rc
        res["setup_s"] = res["t_ready"] - t_spawn if res["t_ready"] is not None else None
        res["log"] = os.path.join(self.dir, f"{tag}.log")
        return res

    def probe(self) -> dict:
        res = self.spawn([], trace=False)
        if res["rc"] != 0:
            raise SetupError(f"importing mfglab.cli failed; see {res['log']}")
        if not os.path.abspath(res["mfglab_file"]).startswith(SRC + os.sep):
            raise SetupError(f"mfglab was imported from {res['mfglab_file']}, not {SRC}")
        return res

    def call(self, trace: bool) -> dict:
        """One workload call in a fresh interpreter, with its output check."""
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        calls = wl.cli_calls(self.workload, self.config, out)
        res = self.spawn(calls, trace)
        ok_exit = res["rc"] == 0 and len(res["calls"]) == len(calls)
        check = (wl.check_outputs(self.workload, self.seed, self.size, out) if ok_exit
                 else {"ok": False, "bit_identical": False,
                       "mismatched": [f"exit {res['rc']}; see {res['log']}"]})
        res["check"] = check
        res["ok"] = ok_exit and check["ok"]
        res["traced"] = trace
        res["run_s"] = sum(c["t1"] - c["t0"] for c in res["calls"])
        res["cpu_s"] = sum(c["cpu_s"] for c in res["calls"])
        res["io_bytes"] = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out) for f in files
        )
        return res


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run: returns metrics, counts and the raw samples."""
    start = time.perf_counter()
    runner = Runner(workload, seed, size, start)
    warm = runner.probe()  # compiles bytecode and warms the file cache; not counted
    probes = [] if trace else [runner.probe() for _ in range(SETUP_PROBES)]
    calls = []
    while True:
        t0 = time.perf_counter()
        calls.append(runner.call(trace=trace and len(calls) % 2 == 0))
        took = time.perf_counter() - t0
        # A traced run needs one untraced call for the overhead ratio.
        if time.perf_counter() - start + took > seconds and not (trace and len(calls) < 2):
            break

    ok = [c for c in calls if c["ok"]]
    # When every call failed its check, time the calls that ran to the end,
    # so the result still prints, with correct false.
    timed = ok or [c for c in calls if c.get("maxrss_kb") is not None]
    setups = [p["setup_s"] for p in probes] + [c["setup_s"] for c in calls
                                               if c["setup_s"] is not None]
    if trace:
        traced = [c for c in timed if c["traced"]]
        plain = [c for c in timed if not c["traced"]]
        per_call = [tracer.layer_metrics(c["spans"], c["io_bytes"]) for c in traced]
        metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]} if per_call else {}
        if traced and plain:
            metrics["trace.overhead_ratio"] = (
                statistics.median(c["run_s"] for c in traced)
                / statistics.median(c["run_s"] for c in plain) - 1.0
            )
    else:
        metrics = {"setup_s": statistics.median(setups)}
        if timed:
            metrics["run_s"] = statistics.median(c["run_s"] for c in timed)
            metrics["peak_rss_mb"] = statistics.median(c["maxrss_kb"] / 1024 for c in timed)
    return {
        "workload": workload,
        "seed": seed,
        "variant": wl.variant_of(seed),
        "size": size,
        "trace": trace,
        "seconds": seconds,
        "wall_s": time.perf_counter() - start,
        "attempted": len(calls),
        "failed": len(calls) - len(ok),
        "bit_identical": bool(calls) and all(c["check"]["bit_identical"] for c in calls),
        "metrics": metrics,
        "environment": environment(warm["versions"]),
        "setup_samples": setups,
        "calls": [
            {k: c.get(k) for k in ("ok", "traced", "rc", "setup_s", "run_s", "cpu_s", "maxrss_kb",
                                   "io_bytes", "check", "log")}
            for c in calls
        ],
    }


def emit(result: dict, names: list[dict]) -> dict:
    """Metrics listed in BENCHMARK.json, by name with unit; errors on a gap."""
    out = {}
    for spec in names:
        value = result["metrics"].get(spec["name"])
        if value is None:
            raise SetupError(f"metric {spec['name']} was not measured; no call succeeded?")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def summary_line(result: dict, emitted: dict) -> str:
    parts = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in emitted.items()]
    return (
        f"{result['workload']} seed {result['seed']} (variant {result['variant']}): "
        + ", ".join(parts)
        + f", fail_ratio {result['failed']}/{result['attempted']}"
        f" = {result['failed'] / result['attempted']:.3g}"
        f", bit_identical {result['bit_identical']}"
        f" (samples: setup {len(result['setup_samples'])}, calls {result['attempted']})"
    )


def save_result(result: dict) -> None:
    d = os.path.join(WORK, "results")
    os.makedirs(d, exist_ok=True)
    name = (f"{result['workload']}-{result['size']}-seed{result['seed']}"
            f"-trace{int(result['trace'])}.json")
    with open(os.path.join(d, name), "w") as fh:
        json.dump(result, fh, indent=1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(wl.GRIDS), default="full",
                   help="'tiny' grids are for the smoke test")
    p.add_argument("--repeat", type=int, default=1,
                   help="with --workload all: repetitions, alternating the order")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mfglab", "cli.py")):
        print(f"no package source at {SRC}/mfglab", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload == "all":
        order = [wl.WORKLOADS if r % 2 == 0 else wl.WORKLOADS[::-1] for r in range(args.repeat)]
        jobs = [w for ws in order for w in ws]
    else:
        jobs = [args.workload]

    attempted = failed = 0
    metrics: dict = {}
    try:
        for i, workload in enumerate(jobs):
            result = measure(workload, args.seed, args.seconds, bool(args.trace), args.size)
            save_result(result)
            emitted = emit(result, names)
            print(summary_line(result, emitted), flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{workload}.{i}." if len(jobs) > 1 else ""
            metrics.update({prefix + name: m for name, m in emitted.items()})
    except SetupError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
