"""One benchmark call in a fresh interpreter.

    python3 child.py RESULT.json CALLS.json TRACE

Imports ``mfglab.cli`` the way every CLI user pays for it, then runs each
argv list of CALLS.json through ``mfglab.cli.main`` in this one process and
writes timings, exit codes, peak memory, library versions and (with TRACE
set to 1) the spans to RESULT.json.  An empty CALLS.json list only times the
import.  Times come from ``time.perf_counter``, the system-wide monotonic
clock on Linux, so the parent can subtract its own spawn time from
``t_ready``.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import mfglab.cli  # noqa: E402

T_READY = time.perf_counter()


def _versions() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(result_path: str, calls_path: str, trace: bool) -> int:
    with open(calls_path) as fh:
        calls = json.load(fh)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    records = []
    status = 0
    for run_id, argv in enumerate(calls):
        if tracer is not None:
            tracer.run_id = run_id
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = mfglab.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        records.append({"argv": argv, "rc": rc, "t0": t0, "t1": time.perf_counter(),
                        "cpu_s": time.process_time() - c0})
        if rc != 0:
            status = 1
            break
    result = {
        "t_start": T_START,
        "t_ready": T_READY,
        "calls": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "mfglab_file": mfglab.cli.__file__,
        "versions": _versions(),
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1"))
