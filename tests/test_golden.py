"""The byte-identical output contract: fourteen CLI runs, in process through
``cli.main``, reproduce the sha256 of every output file (``provenance.json``
excluded), the stdout, the stderr and the exit code recorded in
``tests/golden_outputs.json``.

The runs are the default ``forward``, ``manufacture``, ``sweep``,
``carleman``, ``lemmas`` and ``params``; on a 17x17x33 grid, a
restricted and an unrestricted 2-D ``carleman`` and a 2-D ``lemmas``,
which pin the functional's mixed derivatives and the lemma ratios that
only a cross-section axis has; a 2-D causal-kernel ``forward`` on a
9x9x17 grid, which checks the n-D band-LU march and its CSV output byte
for byte, and a 3-D one on a 9x9x9x17 grid, the one run that marches in
3-D; and the default ``forward`` and ``sweep`` on the damped Picard
step (no mixing window, ``solver.damping`` 0.5), whose files keep the
hashes that the default runs had before the Anderson window became the
default; and the default ``sweep`` on incomplete data, the paper's second
data regime.  Each writes to a relative ``--out`` inside a temporary
working directory, so the printed paths, and with them the hashes, do not
depend on where the tests run.  A change that means to change an output
re-records the file, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which outputs moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from mfglab import cli, mfg

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

RESTRICTED_2D = {
    "prism": {"half_widths": [0.5]},
    "grid": {"nx": 17, "nt": 33},
    "carleman": {"restricted": True},
}

CARLEMAN_2D = {
    "prism": {"half_widths": [0.5]},
    "grid": {"nx": 17, "nt": 33},
    "carleman": {"count": 3},
}

LEMMAS_2D = {
    "prism": {"half_widths": [0.5]},
    "grid": {"nx": 17, "nt": 33},
    "lemmas": {"samples": 3},
}

CAUSAL_2D = {
    "prism": {"half_widths": [0.5]},
    "grid": {"nx": [9, 9], "nt": 17},
    "kernel": {"type": "causal"},
}

CAUSAL_3D = {
    "prism": {"half_widths": [0.5, 0.5]},
    "grid": {"nx": [9, 9, 9], "nt": 17},
    "kernel": {"type": "causal", "amplitude": 0.4},
}

DAMPED = {"solver": {"damping": 0.5}}

INCOMPLETE = {"stability": {"completeness": "incomplete"}}

# run name -> (command, config payload or None for the defaults, length of
# the coupling iteration's mixing window)
RUNS = {
    "forward": ("forward", None, 1),
    "manufacture": ("manufacture", None, 1),
    "sweep": ("sweep", None, 1),
    "carleman": ("carleman", None, 1),
    "lemmas": ("lemmas", None, 1),
    "params": ("params", None, 1),
    "carleman-restricted-2d": ("carleman", RESTRICTED_2D, 1),
    "carleman-2d": ("carleman", CARLEMAN_2D, 1),
    "lemmas-2d": ("lemmas", LEMMAS_2D, 1),
    "forward-causal-2d": ("forward", CAUSAL_2D, 1),
    "forward-causal-3d": ("forward", CAUSAL_3D, 1),
    "forward-damped": ("forward", DAMPED, 0),
    "sweep-damped": ("sweep", DAMPED, 0),
    "sweep-incomplete": ("sweep", INCOMPLETE, 1),
}


def run_case(name: str) -> dict:
    """One run in the current working directory: its exit code, stdout,
    stderr and the sha256 of each file it wrote but provenance.json."""
    command, payload, window = RUNS[name]
    argv = [command, "--out", name]
    if payload is not None:
        config = f"{name}.json"
        Path(config).write_text(json.dumps(payload))
        argv += ["--config", config]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mfg, "_MIXING_WINDOW", window)
            rc = cli.main(argv)
    files = {}
    if os.path.isdir(name):
        for path in sorted(Path(name).iterdir()):
            if path.name != "provenance.json":
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def test_outputs_match_the_golden_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(RUNS)
    for name in RUNS:
        assert run_case(name) == golden[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        record = {name: run_case(name) for name in RUNS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
