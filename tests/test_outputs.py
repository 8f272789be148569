"""The output contract: every tiny benchmark variant, run in-process through
``mfglab.cli.main``, reproduces the outputs recorded in
``perfbench/references/tiny`` (bytes, or key numbers within the benchmark's
tolerance).  The benchmark's own workload module supplies the configs, the
calls and the check; nothing here is a second copy of them."""

import importlib.util
import json
from pathlib import Path

import pytest

from mfglab.cli import main

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
wl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wl)


# the damped Picard step the references were recorded with (zero mixing
# weight, damping 0.5); the default solver (Anderson over one past iterate)
# reaches the same tolerance by another path, so its outputs match them
# within the benchmark's tolerance only
DAMPED = {"damping": 0.5}


def run_tiny(tmp_path, workload: str, variant: int, config: dict) -> dict:
    """Run the variant's CLI calls on ``config`` and check the outputs
    against the reference of the variant's own config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outdir = tmp_path / "out"
    for argv in wl.cli_calls(workload, str(path), str(outdir)):
        assert main(argv) == 0
    return wl.check_outputs(workload, variant, "tiny", str(outdir))


@pytest.mark.parametrize("variant", range(wl.VARIANTS))
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_variant_matches_reference(tmp_path, workload, variant):
    check = run_tiny(tmp_path, workload, variant, wl.make_config(workload, variant, "tiny"))
    assert check["ok"], check["mismatched"]


@pytest.mark.parametrize("variant", range(wl.VARIANTS))
def test_tiny_damped_sweep_is_bit_identical(tmp_path, variant, damped):
    # the 1-D march is bitwise: on the damped step the sweep's outputs match
    # the reference byte for byte
    config = dict(wl.make_config("sweep-1d", variant, "tiny"), solver=DAMPED)
    check = run_tiny(tmp_path, "sweep-1d", variant, config)
    assert check["bit_identical"], check["mismatched"]
