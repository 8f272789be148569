"""Command-line interface: exit codes, file layouts, and determinism.

The entry point, one smoke run per command, the cwd-invariance test and the
README example run ``python -m mfglab.cli`` in a subprocess, the way a user
would; every error-exit test calls ``cli.main`` in process.  The child imports the same ``mfglab`` package that pytest imported,
whether it is installed or found through ``PYTHONPATH=src``, even when the
child runs in a temporary working directory.  The console-script test runs
only where the ``mfglab`` script is installed (``pip install -e .``).
"""

import filecmp
import importlib.util
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import mfglab
from mfglab import __version__, cli, mfg
from mfglab.cli import DEFAULT_CONFIG

# directory holding the imported mfglab package, so that a child started in
# another working directory still imports the code under test
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(mfglab.__file__)))
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

_WORKLOADS = os.path.join(os.path.dirname(README), "perfbench", "workloads.py")
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

FAST_CONFIG = {
    "grid": {"nx": 33, "nt": 65},
    "kernel": {"amplitude": 0.0},
    "problem": {"coupling_gain": 0.0},
}

# exits 2 on its own budget (6 evaluations to reach 1e-12) on the default
# Anderson step, as it did with plain Picard steps
OSCILLATING_CONFIG = {
    "grid": {"nx": 33, "nt": 65},
    "kernel": {"amplitude": 12.0},
    "solver": {"damping": 1.0, "max_iter": 6, "tol": 1e-12},
}


def run_cli(*argv, cwd=None, env_extra=None):
    env = os.environ.copy()
    env.update(env_extra or {})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "mfglab.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(tmp_path, capsys, command, payload, *argv):
    """``cli.main`` in process: exit code, stderr, and whether --out exists.

    ``payload`` is written as the config file; a string is passed as the
    config path and None passes no config."""
    out = tmp_path / "out"
    if isinstance(payload, dict):
        payload = write_config(tmp_path, payload)
    config = () if payload is None else ("--config", payload)
    rc = cli.main([command, *config, "--out", str(out), *argv])
    return rc, capsys.readouterr().err, out.exists()


class TestEntryPoints:
    def test_version_flag(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert res.stdout.strip() == __version__

    @pytest.mark.skipif(
        shutil.which("mfglab") is None,
        reason="mfglab console script is not installed",
    )
    def test_console_script_matches_module(self, tmp_path):
        script = subprocess.run(
            ["mfglab", "--version"], capture_output=True, text=True
        )
        assert script.returncode == 0
        assert script.stdout == run_cli("--version").stdout

    def test_missing_command_is_an_error(self):
        assert run_cli().returncode != 0

    def test_every_option_has_a_benchmark_caller(self, capsys):
        # the config file sets a run; an option no benchmark call passes is
        # a second way to set it that only its own tests use
        options = set()
        for command in cli._COMMANDS:
            with pytest.raises(SystemExit):
                cli.main([command, "-h"])
            usage = capsys.readouterr().out.split("\n\n")[0]
            options |= set(re.findall(r"\[(-[\w-]+)", usage)) - {"-h"}
        passed = {
            arg
            for workload in workloads.WORKLOADS
            for argv in workloads.cli_calls(workload, "config.json", "out")
            for arg in argv
            if arg.startswith("-")
        }
        assert options - passed == set()


class TestInProcess:
    @pytest.mark.parametrize("command", ["forward", "lemmas"])
    def test_main_twice_gives_the_same_outputs_and_leaks_no_state(
        self, tmp_path, capsys, command
    ):
        payload = {**FAST_CONFIG, "grid": {"nx": 17, "nt": 33}, "lemmas": {"samples": 2}}
        argv = [command, "--config", write_config(tmp_path, payload),
                "--out", str(tmp_path / "out")]
        loggers = (logging.getLogger(), logging.getLogger("mfglab.mfg"))

        def state():
            return ([list(lg.handlers) for lg in loggers], np.geterr(),
                    list(warnings.filters))

        before = state()
        runs = []
        for _ in range(2):
            rc = cli.main(argv)
            out = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}
            runs.append((rc, out.out, out.err, files))
            assert state() == before
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("command, payload, expected", [
        # 1-D: the value matrix is factored once for the lockstep group, and
        # each density block of levels by one dgttrf call; each of the 12
        # value and 13 density marches solves its 256 levels one call each
        ("sweep", {}, {"dgttrf": 354, "dgttrs": 6400}),
        # n-D: one dgbtrf call for the value matrix and one per density
        # level, one dgbtrs call per level of every march
        ("forward", workloads.make_config("forward-2d", 7), {"dgbtrf": 705, "dgbtrs": 1344}),
    ], ids=["sweep-1d", "forward-2d"])
    def test_one_lapack_solve_per_marched_level(
        self, tmp_path, monkeypatch, command, payload, expected
    ):
        calls = dict.fromkeys(("dgttrf", "dgttrs", "dgbtrf", "dgbtrs"), 0)
        for name in calls:
            def counted(*args, _name=name, _routine=getattr(mfg, name), **kwargs):
                calls[_name] += 1
                return _routine(*args, **kwargs)

            monkeypatch.setattr(mfg, name, counted)
        argv = [command, "--config", write_config(tmp_path, payload),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert {name: n for name, n in calls.items() if n} == expected


class TestParams:
    def test_default_point(self, tmp_path):
        res = run_cli("params", cwd=str(tmp_path))
        assert res.returncode == 0
        # the calculus alone writes nothing
        assert os.listdir(tmp_path) == []
        lines = dict(
            line.split(" = ", 1) for line in res.stdout.strip().splitlines()
        )
        assert lines["rho"] == "1/2"
        assert lines["epsilon"] == "1/5"
        assert lines["s"] == "9/16"
        assert lines["beta"] == "33/7"
        assert lines["alpha"] == "1000/7"
        assert lines["d"] == "132/7"
        assert float(lines["delta0"]) == pytest.approx(4.1772822957852647e-17)

    def test_json_number_reads_as_the_decimal_it_spells(self, tmp_path, capsys):
        # the config number 0.2 reads as the string "1/5", not as the nearest
        # binary fraction
        outputs = []
        for name, epsilon in (("number.json", 0.2), ("fraction.json", "1/5")):
            config = write_config(tmp_path, {"stability": {"epsilon": epsilon}}, name)
            assert cli.main(["params", "--config", config]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "epsilon = 1/5\n" in outputs[0].out
        assert outputs[0].err == ""

    def test_rejects_epsilon_outside_window(self, tmp_path, capsys):
        payload = {"stability": {"rho": "1/2", "epsilon": "1/10"}}
        rc, err, wrote = run_main(tmp_path, capsys, "params", payload)
        assert (rc, wrote) == (1, False)
        assert "outside the admissible window" in err


class TestForward:
    def test_decoupled_run_writes_full_layout(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        res = run_cli("forward", "--config", cfg, "--out", "run", cwd=str(tmp_path))
        assert res.returncode == 0
        assert "converged in 1 iterations" in res.stdout
        assert sorted(os.listdir(tmp_path / "run")) == [
            "f.csv",
            "grid.json",
            "history.csv",
            "k.csv",
            "kernel.json",
            "m.csv",
            "provenance.json",
            "report.json",
            "u.csv",
        ]
        prov = json.load(open(tmp_path / "run" / "provenance.json"))
        assert prov["command"] == "forward"
        assert prov["config"]["grid"] == {"nx": 33, "nt": 65}

    def test_nonconvergence_exits_2_and_keeps_history(self, tmp_path):
        cfg = write_config(tmp_path, OSCILLATING_CONFIG)
        res = run_cli("forward", "--config", cfg, "--out", "run", cwd=str(tmp_path))
        assert res.returncode == 2
        assert "did not converge" in res.stderr
        assert sorted(os.listdir(tmp_path / "run")) == [
            "history.csv",
            "provenance.json",
        ]
        lines = open(tmp_path / "run" / "history.csv").read().splitlines()
        assert lines[0] == "iteration,change"
        # per-iteration changes start at the second iterate
        assert len(lines) == 1 + 5

    def test_manufacture_writes_triple(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        res = run_cli(
            "manufacture", "--config", cfg, "--out", "made", cwd=str(tmp_path)
        )
        assert res.returncode == 0
        assert "wrote manufactured triple" in res.stdout
        assert {"u.csv", "m.csv", "k.csv", "grid.json"} <= set(
            os.listdir(tmp_path / "made")
        )

    def test_outputs_are_byte_identical_across_working_dirs(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        for sub in ("one", "two"):
            os.makedirs(tmp_path / sub)
            res = run_cli(
                "manufacture", "--config", cfg, "--out", "made",
                cwd=str(tmp_path / sub),
            )
            assert res.returncode == 0
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "one" / "made",
            tmp_path / "two" / "made",
            os.listdir(tmp_path / "one" / "made"),
            shallow=False,
        )
        assert mismatch == [] and errors == []
        # a manufactured triple has no solver history file
        assert len(match) == 8


class TestCarleman:
    def test_small_family_constant(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": {"nx": 65, "nt": 129},
                                      "carleman": {"count": 5}})
        res = run_cli("carleman", "--config", cfg, "--out", "car", cwd=str(tmp_path))
        assert res.returncode == 0
        assert "empirical C0 = 2.29617 at lambda0 = 2" in res.stdout
        summary = json.load(open(tmp_path / "car" / "carleman.json"))
        assert summary["c0"] == pytest.approx(2.2961733044149595, rel=1e-12)
        assert summary["lambda0"] == 2.0
        # five members, each swept under both equation signs
        assert summary["members"] == 10

    def test_unconstrained_family_reports_none(self, tmp_path):
        # on the coarse grid no lambda yields a positive bracket
        cfg = write_config(tmp_path, {"grid": {"nx": 33, "nt": 65}})
        res = run_cli("carleman", "--config", cfg, "--out", "car", cwd=str(tmp_path))
        assert res.returncode == 0
        assert "no lambda constrained the constant" in res.stdout
        summary = json.load(open(tmp_path / "car" / "carleman.json"))
        assert summary["c0"] is None

    def test_lambda_beyond_overflow_guard_exits_3(self, tmp_path, capsys):
        payload = {"carleman": {"lambdas": [1000000]}}
        rc, err, wrote = run_main(tmp_path, capsys, "carleman", payload)
        assert (rc, wrote) == (3, False)
        assert "exceeds the overflow guard LAMBDA_MAX" in err

    def test_boundary_factor_overflow_exits_3(self, tmp_path, capsys):
        # lambda b^2 = 64 * 16 = 1024: exp(1024) is out of double range
        payload = {"prism": {"a": 1, "b": 4}, "grid": {"nx": 17, "nt": 33},
                   "carleman": {"count": 2, "lambdas": [2, 64]}}
        rc, err, wrote = run_main(tmp_path, capsys, "carleman", payload)
        assert (rc, wrote) == (3, False)
        assert err == (
            "lambda = 64 with b = 4 takes the boundary factor exp(lambda b^2) = "
            "exp(1024) out of floating-point range\n"
        )

    def test_lambda_below_one_is_a_config_error(self, tmp_path, capsys):
        payload = {"carleman": {"lambdas": [0.5, 2]}}
        rc, err, wrote = run_main(tmp_path, capsys, "carleman", payload)
        assert (rc, wrote) == (1, False)
        assert "lambda grid values must be >= 1" in err

    def test_lambda_beyond_float_range_is_a_config_error(self, tmp_path, capsys):
        # JSON reads 1 followed by 400 zeros as an int that no float holds
        payload = {"carleman": {"lambdas": [2, 10**400]}}
        rc, err, wrote = run_main(tmp_path, capsys, "carleman", payload)
        assert (rc, wrote) == (1, False)
        assert err == (
            "config error: lambda grid values must be numbers in floating-point "
            "range, got a 401-digit integer\n"
        )


class TestLemmas:
    def test_small_run_counts_and_kinds(self, tmp_path):
        cfg = write_config(
            tmp_path, {"grid": {"nx": 33, "nt": 65}, "lemmas": {"samples": 2}}
        )
        res = run_cli("lemmas", "--config", cfg, "--out", "lem", cwd=str(tmp_path))
        assert res.returncode == 0
        # the causal-kernel ratio is not flat, but it is bounded and
        # non-increasing in lambda, which is what its lemma states
        assert "6/6 lemma checks passed or bounded" in res.stdout
        summary = json.load(open(tmp_path / "lem" / "lemmas.json"))
        kinds = {entry["which"] for entry in summary}
        assert kinds == {"spatial", "causal", "time-integral"}
        assert all(e["passed"] for e in summary)
        assert all(e["slope"] < -1.0 for e in summary if e["which"] == "causal")

    def test_reports_are_ordered_lemma_then_sample(self, tmp_path, capsys):
        payload = {"grid": {"nx": 17, "nt": 33}, "lemmas": {"samples": 3}}
        rc, _, _ = run_main(tmp_path, capsys, "lemmas", payload)
        assert rc == 0
        summary = json.load(open(tmp_path / "out" / "lemmas.json"))
        assert [e["which"] for e in summary] == (
            ["spatial"] * 3 + ["causal"] * 3 + ["time-integral"] * 3
        )
        # the sample column numbers the samples within each lemma
        rows = (tmp_path / "out" / "lemmas.csv").read_text().splitlines()[1:]
        lambdas = len(DEFAULT_CONFIG["lemmas"]["lambdas"])
        assert [tuple(row.split(",")[:2]) for row in rows[::lambdas]] == [
            (which, str(sample))
            for which in ("spatial", "causal", "time-integral")
            for sample in range(3)
        ]

    def test_memory_does_not_grow_with_samples(self, tmp_path):
        # every sample is checked against all three lemmas, then dropped
        grid = {"nx": [33, 33], "nt": 33}
        member_bytes = 33 * 33 * 33 * 8

        def peak(samples):
            payload = {"prism": {"half_widths": [0.5]}, "grid": grid,
                       "lemmas": {"samples": samples}}
            cfg = write_config(tmp_path, payload, f"samples{samples}.json")
            argv = ["lemmas", "--config", cfg, "--out", str(tmp_path / f"out{samples}")]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(2)
        assert peak(8) - small < member_bytes

    def test_lambda_beyond_overflow_guard_exits_3(self, tmp_path, capsys):
        payload = {"grid": {"nx": 17, "nt": 33}, "lemmas": {"lambdas": [1.0, 100.0]}}
        rc, err, wrote = run_main(tmp_path, capsys, "lemmas", payload)
        assert (rc, wrote) == (3, False)
        assert err == (
            "lambda = 100 exceeds the overflow guard LAMBDA_MAX = 64; "
            "the weight would leave floating-point range\n"
        )

    @pytest.mark.parametrize("lambdas, message", [
        ([0.5, 2.0], "lambda grid values must be >= 1, got 0.5"),
        ([], "lambda grid must be a non-empty list of numbers"),
        (["2"], "lambda grid values must be numbers, got '2'"),
        ([2.0], "lambda grid must hold at least 2 distinct values"),
        ([2.0, 2.0], "lambda grid must hold at least 2 distinct values"),
    ], ids=["below-one", "empty", "not-a-number", "one-value", "one-distinct-value"])
    def test_bad_lambda_grid_is_a_config_error(self, tmp_path, capsys, lambdas, message):
        payload = {"grid": {"nx": 17, "nt": 33}, "lemmas": {"lambdas": lambdas}}
        rc, err, wrote = run_main(tmp_path, capsys, "lemmas", payload)
        assert (rc, wrote) == (1, False)
        assert err == f"config error: {message}\n"


class TestSweep:
    SWEEP_CONFIG = {
        "grid": {"nx": 33, "nt": 65},
        "stability": {"scales": [1e-3, 1e-1, 3]},
    }

    def test_small_sweep_files_and_fit(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP_CONFIG)
        res = run_cli("sweep", "--config", cfg, "--out", "sw", cwd=str(tmp_path))
        assert res.returncode == 0
        assert "fitted slope" in res.stdout
        assert sorted(os.listdir(tmp_path / "sw")) == [
            "fit.json",
            "params.json",
            "provenance.json",
            "sweep.csv",
        ]
        fit = json.load(open(tmp_path / "sw" / "fit.json"))
        assert 0.8 < fit["slope"] < 1.2
        assert fit["delta_decades"] > 1.5
        assert fit["excluded"] == []

    def test_bad_scales_rejected(self, tmp_path, capsys):
        for scales in (
            [0.1, 0.01, 3], [1e-3, 1e-1, 1], [1e-3, 1e-1], [1e-3, 1e-1, 3, 4],
            "1e-3,1e-1,3", [1e-3, "0.1", 3], [1e-3, 1e-1, None],
            [1e-3, float("inf"), 3],
        ):
            payload = {"grid": {"nx": 33, "nt": 65}, "stability": {"scales": scales}}
            rc, err, wrote = run_main(tmp_path, capsys, "sweep", payload)
            assert (rc, wrote) == (1, False), scales
            assert err == f"config error: {RULE_LINES['stability', 'scales']}\n"

    def test_unknown_completeness_is_a_config_error(self, tmp_path, capsys):
        payload = {"grid": {"nx": 17, "nt": 33}, "stability": {"completeness": "partial"}}
        rc, err, wrote = run_main(tmp_path, capsys, "sweep", payload)
        assert (rc, wrote) == (1, False)
        assert err == (
            "config error: stability.completeness must be 'full' or 'incomplete'\n"
        )


    def test_base_nonconvergence_exits_2(self, tmp_path, capsys):
        payload = {"grid": {"nx": 17, "nt": 33}, "solver": {"max_iter": 2}}
        rc, err, wrote = run_main(tmp_path, capsys, "sweep", payload)
        assert (rc, wrote) == (2, False)
        assert err.startswith("base forward solve did not converge: no convergence after 2")


class TestReadme:
    def test_example_config_holds_defaults_and_runs(self, tmp_path):
        with open(README) as fh:
            block = fh.read().split("```json\n", 1)[1].split("```", 1)[0]
        example = json.loads(block)
        for section, values in example.items():
            for key, value in values.items():
                assert DEFAULT_CONFIG[section][key] == value, f"{section}.{key}"
        path = tmp_path / "readme.json"
        path.write_text(block)
        res = run_cli("manufacture", "--config", str(path), "--out", "out", cwd=str(tmp_path))
        assert res.returncode == 0, res.stderr


class TestConfigErrors:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        payload = {"grid": {"nx": 33, "nt": 65}, "oops": 1}
        rc, err, wrote = run_main(tmp_path, capsys, "params", payload)
        assert (rc, wrote) == (1, False)
        assert "unknown config key 'oops'" in err

    @pytest.mark.parametrize("payload", [[1], None, "x"], ids=["list", "null", "string"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, payload):
        rc, err, wrote = run_main(tmp_path, capsys, "params", write_config(tmp_path, payload))
        assert (rc, wrote) == (1, False)
        assert err == "config error: config must be a JSON object\n"

    def test_unknown_nested_key(self, tmp_path, capsys):
        rc, err, wrote = run_main(tmp_path, capsys, "params", {"solver": {"damp": 1.0}})
        assert (rc, wrote) == (1, False)
        assert "unknown config key 'solver'.'damp'" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, err, wrote = run_main(tmp_path, capsys, "params", str(path))
        assert (rc, wrote) == (1, False)
        assert "not valid JSON" in err

    def test_integer_beyond_float_range_is_a_config_error(self, tmp_path, capsys):
        # JSON reads 1 followed by 400 zeros as an int that no float holds
        rc, err, wrote = run_main(tmp_path, capsys, "params", {"solver": {"tol": 10**400}})
        assert (rc, wrote) == (1, False)
        assert err == "config error: solver.tol must be a finite number > 0\n"

    @pytest.mark.parametrize("text, reason", [
        ('{"solver": {"tol": 1' + "0" * 5000 + "}}", "Exceeds the limit (4300 digits)"),
        (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["digit-limit", "not-utf-8"])
    def test_unreadable_json_is_a_config_error(self, tmp_path, capsys, text, reason):
        path = tmp_path / "config.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        rc, err, wrote = run_main(tmp_path, capsys, "params", str(path))
        assert (rc, wrote) == (1, False)
        assert err.startswith(f"config error: config is not valid JSON: {reason}")
        assert err.count("\n") == 1

    def test_missing_config_file(self, tmp_path, capsys):
        rc, err, wrote = run_main(tmp_path, capsys, "params", str(tmp_path / "absent.json"))
        assert (rc, wrote) == (1, False)
        assert "cannot read config" in err

    @pytest.mark.parametrize("command", ["forward", "sweep"])
    def test_bad_damping(self, tmp_path, capsys, command):
        for damping in (1.5, None):
            payload = {**FAST_CONFIG, "solver": {"damping": damping}}
            rc, err, wrote = run_main(tmp_path, capsys, command, payload)
            assert (rc, wrote) == (1, False)
            assert err == "config error: solver.damping must lie in (0, 1]\n"

    @pytest.mark.parametrize("command", ["forward", "sweep"])
    def test_bad_max_iter_and_tol(self, tmp_path, capsys, command):
        cases = [
            ({"max_iter": "5"}, "solver.max_iter must be an integer >= 1"),
            ({"max_iter": 0}, "solver.max_iter must be an integer >= 1"),
            ({"max_iter": True}, "solver.max_iter must be an integer >= 1"),
            ({"tol": None}, "solver.tol must be a finite number > 0"),
            ({"tol": -1e-9}, "solver.tol must be a finite number > 0"),
            ({"tol": float("nan")}, "solver.tol must be a finite number > 0"),
        ]
        for solver, message in cases:
            payload = {**FAST_CONFIG, "solver": solver}
            rc, err, wrote = run_main(tmp_path, capsys, command, payload)
            assert (rc, wrote) == (1, False), solver
            assert err == f"config error: {message}\n"

    def test_kernel_above_declared_bound(self, tmp_path, capsys):
        payload = {**FAST_CONFIG, "kernel": {"amplitude": 5.0, "n1": 1}}
        rc, err, wrote = run_main(tmp_path, capsys, "manufacture", payload)
        assert (rc, wrote) == (1, False)
        assert err == (
            "config error: kernel: sampled kernel magnitude 5.0 exceeds the declared bound 1\n"
        )

    def test_unknown_kernel_profile(self, tmp_path, capsys):
        payload = {**FAST_CONFIG, "kernel": {"type": "separable", "profile": "triangle"}}
        rc, err, wrote = run_main(tmp_path, capsys, "manufacture", payload)
        assert (rc, wrote) == (1, False)
        assert err == "config error: kernel: unknown kernel profile 'triangle'\n"

    @pytest.mark.parametrize("command, section, key", [
        ("carleman", "carleman", "count"), ("lemmas", "lemmas", "samples"),
    ])
    @pytest.mark.parametrize("value", ["3", 0, True, 2.0])
    def test_family_size_must_be_a_positive_integer(
        self, tmp_path, capsys, command, section, key, value
    ):
        payload = {"grid": {"nx": 17, "nt": 33}, section: {key: value}}
        rc, err, wrote = run_main(tmp_path, capsys, command, payload)
        assert (rc, wrote) == (1, False)
        assert err == f"config error: {section}.{key} must be an integer >= 1\n"

    @pytest.mark.parametrize("out, flag, shown", [
        (5, False, "5"), (None, False, "None"), ("", False, "''"), ("", True, "''"),
    ], ids=["number", "null", "empty", "empty-flag"])
    def test_out_must_be_a_nonempty_path(self, tmp_path, capsys, monkeypatch, out, flag, shown):
        # checked before any work: the carleman run would finish and only
        # then fail to make the directory
        monkeypatch.chdir(tmp_path)
        payload = {"grid": {"nx": 9, "nt": 17}, "carleman": {"count": 2}}
        argv = ["carleman", "--config", write_config(tmp_path, payload)]
        if flag:
            argv += ["--out", out]
        else:
            payload["out"] = out
            write_config(tmp_path, payload)
        rc = cli.main(argv)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: out must be a non-empty path string, got {shown}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestSolverFailures:
    SMALL = {"grid": {"nx": 17, "nt": 33}}

    def test_density_below_floor_is_a_config_error(self, tmp_path, capsys):
        payload = {**self.SMALL, "problem": {"u_amplitude": 30}}
        rc, err, wrote = run_main(tmp_path, capsys, "forward", payload)
        assert (rc, wrote) == (1, False)
        assert err.startswith("config error: problem: solved density fell below the floor")

    def test_forward_blowup_exits_3(self, tmp_path, capsys):
        payload = {**self.SMALL, "problem": {"coupling_gain": 1e300}}
        rc, err, wrote = run_main(tmp_path, capsys, "forward", payload)
        assert (rc, wrote) == (3, False)
        assert err.startswith("hjb solve blew up at time level")

    def test_sweep_blowup_exits_3(self, tmp_path, capsys):
        payload = {**self.SMALL, "stability": {"perturbation_scale": 1e6}}
        rc, err, wrote = run_main(tmp_path, capsys, "sweep", payload)
        assert (rc, wrote) == (3, False)
        assert err.startswith("hjb solve blew up at time level")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_coefficient_overflow_exits_3(self, tmp_path, capsys):
        # 1e300 * 1e300 is no double: caught before any solve, with no
        # overflow warning
        payload = {**self.SMALL,
                   "stability": {"scales": [1e-4, 1e300, 3], "perturbation_scale": 1e300}}
        rc, err, wrote = run_main(tmp_path, capsys, "sweep", payload)
        assert (rc, wrote) == (3, False)
        assert err == (
            "scale = 1e+300 with perturbation_scale = 1e+300 takes the coefficient "
            "k1 + scale * delta_k out of floating-point range\n"
        )


CONFIG_LEAVES = [
    (section, key)
    for section, values in DEFAULT_CONFIG.items()
    if isinstance(values, dict)
    for key in values
]

# the exact line for each value the CLI's own rule table checks
RULE_LINES = {
    ("solver", "damping"): "solver.damping must lie in (0, 1]",
    ("solver", "max_iter"): "solver.max_iter must be an integer >= 1",
    ("solver", "tol"): "solver.tol must be a finite number > 0",
    ("problem", "u_amplitude"): "problem.u_amplitude must be a finite number",
    ("problem", "coupling_gain"): "problem.coupling_gain must be a finite number",
    ("stability", "lam1"): "stability.lam1 must be a finite number > 0",
    ("stability", "scales"):
        "stability.scales must be [lo, hi, count] with 0 < lo < hi and "
        f"2 <= count <= {np.iinfo(np.intp).max // 8}",
    ("stability", "perturbation_scale"):
        "stability.perturbation_scale must be a finite nonzero number",
    ("stability", "completeness"): "stability.completeness must be 'full' or 'incomplete'",
    ("carleman", "alpha"): "carleman.alpha must be null or a finite number > 0",
    ("carleman", "count"): "carleman.count must be an integer >= 1",
    ("carleman", "seed"): "carleman.seed must be an integer >= 0",
    ("carleman", "restricted"): "carleman.restricted must be true or false",
    ("lemmas", "samples"): "lemmas.samples must be an integer >= 1",
    ("lemmas", "seed"): "lemmas.seed must be an integer >= 0",
}


class TestConfigGuard:
    """Every config key is checked before any work, whatever the command:
    a string where a value belongs exits 1 with one line and writes nothing."""

    @pytest.mark.parametrize("section, key, command", [
        # a sweep case goes by the bare key, any other by key and command
        pytest.param(s, k, c, id=f"{s}.{k}" if c == "sweep" else f"{s}.{k}-{c}")
        for c in cli._COMMANDS
        for s, k in CONFIG_LEAVES
    ])
    def test_every_key_is_checked(self, tmp_path, capsys, section, key, command):
        payload = {"grid": {"nx": 17, "nt": 33}}
        payload.setdefault(section, {})[key] = "x"
        rc, err, wrote = run_main(tmp_path, capsys, command, payload)
        assert (rc, wrote) == (1, False)
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert err.endswith("\n")
        if (section, key) in RULE_LINES:
            assert err == f"config error: {RULE_LINES[section, key]}\n"

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "damping", True),
        ("stability", "scales", [1e-3, 1e-1, 2.5]),
        ("stability", "lam1", "2"),
        ("carleman", "count", 0),
    ], ids=["bool-damping", "fractional-count", "string-lam1", "params-checks-carleman"])
    def test_no_value_is_coerced(self, tmp_path, capsys, section, key, value):
        rc, err, wrote = run_main(tmp_path, capsys, "params", {section: {key: value}})
        assert (rc, wrote) == (1, False)
        assert err == f"config error: {RULE_LINES[section, key]}\n"

    @pytest.mark.parametrize("section, key, value, line", [
        ("kernel", "amplitude", True, "kernel: amplitude must be a finite number, got True"),
        ("kernel", "amplitude", float("nan"), "kernel: amplitude must be a finite number, got nan"),
        ("kernel", "n1", "x", "kernel: n1 must be null or a finite number >= 0, got 'x'"),
        ("kernel", "n1", -1, "kernel: n1 must be null or a finite number >= 0, got -1"),
        ("prism", "T", float("inf"), "prism/grid: prism T must be a finite number, got inf"),
        ("prism", "half_widths", ["0.5"],
         "prism/grid: prism half_widths[0] must be a finite number, got '0.5'"),
        ("prism", "a", True, "prism/grid: prism a must be a finite number, got True"),
    ], ids=["bool-amplitude", "nan-amplitude", "string-n1", "negative-n1", "infinite-T",
            "string-half-width", "bool-a"])
    def test_kernel_and_prism_numbers_are_checked(
        self, tmp_path, capsys, section, key, value, line
    ):
        payload = {"grid": {"nx": 17, "nt": 33}, section: {key: value}}
        rc, err, wrote = run_main(tmp_path, capsys, "manufacture", payload)
        assert (rc, wrote) == (1, False)
        assert err == f"config error: {line}\n"

    @pytest.mark.parametrize("command", ["carleman", "lemmas"])
    @pytest.mark.parametrize("rho, line", [
        ("garbage", "stability.rho/epsilon: Invalid literal for Fraction: 'garbage'"),
        ("3/2", "rho must lie in (0, 1)"),
    ], ids=["garbage-rho", "rho-above-1"])
    def test_set_alpha_still_checks_rho(self, tmp_path, capsys, command, rho, line):
        payload = {"grid": {"nx": 17, "nt": 33}, "carleman": {"alpha": 2.0},
                   "stability": {"rho": rho}}
        rc, err, wrote = run_main(tmp_path, capsys, command, payload)
        assert (rc, wrote) == (1, False)
        assert err == f"config error: {line}\n"

    # T = 2 moves epsilon's window to (0.292893, 1), past the default 1/5
    @pytest.mark.parametrize("command, alpha, rc", [
        ("forward", None, 0),
        ("manufacture", None, 0),
        ("carleman", 2.0, 0),
        ("lemmas", 2.0, 0),
        ("carleman", None, 1),
        ("lemmas", None, 1),
        ("params", None, 1),
        ("sweep", None, 1),
    ], ids=["forward", "manufacture", "carleman-alpha", "lemmas-alpha", "carleman",
            "lemmas", "params", "sweep"])
    def test_epsilon_window_binds_where_the_calculus_is_read(
        self, tmp_path, capsys, command, alpha, rc
    ):
        payload = {"grid": {"nx": 17, "nt": 33}, "prism": {"T": 2.0},
                   "carleman": {"alpha": alpha, "count": 2, "lambdas": [2.0, 4.0]},
                   "lemmas": {"samples": 2, "lambdas": [1.0, 2.0]}}
        got, err, wrote = run_main(tmp_path, capsys, command, payload)
        assert (got, wrote) == (rc, rc == 0)
        if rc:
            assert err == ("config error: epsilon = 0.2 outside the admissible window "
                           "(0.292893, 1) for rho = 0.5\n")

    @pytest.mark.parametrize("key, name", [("nx", "nx[0]"), ("nt", "nt")], ids=["nx", "nt"])
    def test_grid_count_beyond_float_range_is_a_config_error(self, tmp_path, capsys, key, name):
        # JSON reads 1 followed by 400 zeros as an int that no float holds
        payload = {"grid": {"nx": 17, "nt": 33}}
        payload["grid"][key] = 10**400
        rc, err, wrote = run_main(tmp_path, capsys, "params", payload)
        assert (rc, wrote) == (1, False)
        assert err == (
            f"config error: prism/grid: {name} must be in floating-point range, "
            "got a 401-digit integer\n"
        )

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_scale_count_beyond_any_array_is_a_config_error(self, tmp_path, capsys, command):
        # 10^20 scales: no float64 array is that long
        payload = {"stability": {"scales": [1e-4, 1e-1, 10**20]}}
        rc, err, wrote = run_main(tmp_path, capsys, command, payload)
        assert (rc, wrote) == (1, False)
        assert err == f"config error: {RULE_LINES['stability', 'scales']}\n"

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_grid_beyond_any_array_is_a_config_error(self, tmp_path, capsys, command):
        # 10^300 x 257 nodes: each count is a float, no float64 array is that long
        rc, err, wrote = run_main(tmp_path, capsys, command, {"grid": {"nx": 10**300}})
        assert (rc, wrote) == (1, False)
        assert err == (
            "config error: prism/grid: grid has a 303-digit node count, "
            "beyond any float64 array\n"
        )

    @pytest.mark.parametrize("command, payload, line", [
        (command, {"prism": {"b": 1e160}, "carleman": {"alpha": alpha}},
         "prism/grid: prism requires b^2 in floating-point range, got b=1e+160")
        for command, alpha in [("params", None), ("carleman", None), ("lemmas", None),
                               ("carleman", 1.0), ("lemmas", 1.0)]
    ] + [
        # b^2 = 1e308 is a double, the calculus's alpha = (1000/7) b^2 is not
        (command, {"prism": {"b": 1e154}},
         "alpha is out of floating-point range for b = 1e+154, T = 1, epsilon = 0.2")
        for command in ("params", "carleman", "lemmas", "sweep")
    ], ids=["params", "carleman", "lemmas", "carleman-alpha", "lemmas-alpha",
            "calculus-params", "calculus-carleman", "calculus-lemmas", "calculus-sweep"])
    def test_huge_prism_is_a_config_error(self, tmp_path, capsys, command, payload, line):
        rc, err, wrote = run_main(tmp_path, capsys, command, payload)
        assert (rc, wrote) == (1, False)
        assert err == f"config error: {line}\n"

    # b^2 = 1e308 is a double, 2 lambda b^2 is not; with b = 5, lambda b^2
    # = 800 is past estimate_c0's guard, but the lemma weights are doubles
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("b, rc, err", [
        (1e154, 3, "lambda = 1 with b = 1e+154 takes the weight exponent 2 lambda b^2 "
                   "out of floating-point range\n"),
        (5.0, 0, ""),
    ], ids=["past-double-range", "past-the-boundary-guard"])
    def test_lemma_weight_exponent_is_guarded(self, tmp_path, capsys, b, rc, err):
        payload = {"prism": {"b": b}, "carleman": {"alpha": 1.0}, "grid": {"nx": 17, "nt": 33}}
        assert run_main(tmp_path, capsys, "lemmas", payload) == (rc, err, rc == 0)

    # alpha (T/2)^2 = 4e308 is not a double: unguarded, numpy warned of the
    # overflow and both commands exited 0 with a weight of exp(-inf) = 0
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, lam", [("carleman", 2), ("lemmas", 1)])
    def test_weight_exponent_span_is_guarded(self, tmp_path, capsys, command, lam):
        payload = {"prism": {"T": 4.0}, "carleman": {"alpha": 1e308}, "grid": {"nx": 17, "nt": 33}}
        err = (f"lambda = {lam} with alpha = 1e+308 and T = 4 takes the weight exponent's "
               "span 2 lambda (b^2 + alpha (T/2)^2) out of floating-point range\n")
        assert run_main(tmp_path, capsys, command, payload) == (3, err, False)

    # the weights are doubles, but the causal lemma's target scales like b
    # times the sample: unguarded, numpy warned of an overflow in dot and
    # lemmas exited 0 with NaN and Infinity in lemmas.json
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lemma_energy_is_guarded(self, tmp_path, capsys):
        payload = {"prism": {"b": 1e153, "T": 4.0}, "carleman": {"alpha": 1e300},
                   "grid": {"nx": 17, "nt": 33}}
        err = ("sample 0: the causal lemma's weighted energies at lambda = 1 "
               "leave floating-point range\n")
        assert run_main(tmp_path, capsys, "lemmas", payload) == (3, err, False)

    @pytest.mark.parametrize("command, payload, line", [
        (command, {"prism": {"a": 1e-300, "b": 1e-299}},
         "prism/grid: x1 spacing h[0] = 1.40625e-301 squares to 0 in floating point")
        for command in ("sweep", "carleman", "lemmas", "params")
    ] + [
        (command, {"prism": {"T": 1e-100}},
         "problem: T = 1e-100 takes T^4 out of floating-point range")
        for command in ("forward", "manufacture")
    ], ids=["sweep", "carleman", "lemmas", "params", "forward-T", "manufacture-T"])
    def test_tiny_prism_is_a_config_error(self, tmp_path, capsys, command, payload, line):
        rc, err, wrote = run_main(tmp_path, capsys, command, payload)
        assert (rc, wrote) == (1, False)
        assert err == f"config error: {line}\n"

    def test_params_guards_the_lemma_lambdas(self, tmp_path, capsys):
        payload = {"lemmas": {"lambdas": [1.0, 100.0]}}
        rc, err, _ = run_main(tmp_path, capsys, "params", payload)
        assert rc == 3
        assert err.startswith("lambda = 100 exceeds the overflow guard")

    @pytest.mark.parametrize("section, key, value", [
        ("stability", "rho", [1]),
        ("stability", "rho", float("inf")),
        ("prism", "T", float("inf")),
    ], ids=["list-rho", "infinite-rho", "infinite-T"])
    def test_parameter_calculus_input_is_checked(self, tmp_path, capsys, section, key, value):
        rc, err, _ = run_main(tmp_path, capsys, "params", {section: {key: value}})
        assert rc == 1
        assert err.startswith("config error: ") and err.count("\n") == 1
