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


@pytest.mark.parametrize("variant", range(wl.VARIANTS))
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_variant_matches_reference(tmp_path, workload, variant):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.make_config(workload, variant, "tiny")))
    outdir = tmp_path / "out"
    for argv in wl.cli_calls(workload, str(config), str(outdir)):
        assert main(argv) == 0
    check = wl.check_outputs(workload, variant, "tiny", str(outdir))
    assert check["ok"], check["mismatched"]
    if workload == "sweep-1d":
        # the 1-D march is bitwise: its outputs match the reference byte for byte
        assert check["bit_identical"], check["mismatched"]
