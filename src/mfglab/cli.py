"""Experiment runner.

Subcommands cover the forward solver, manufactured-solution generation, the
weight-functional sweep, the integral-lemma checks, the end-to-end exponent
sweep, and the parameter calculus.  Configuration is a single JSON file;
``--out`` alone overrides its ``out`` key.  Exit codes: 0 success, 1
configuration error, 2 solver non-convergence, 3 numeric-range guard or
solver blow-up.  Every config value is checked before any work.

Outputs are deterministic: same config and seeds give byte-identical files,
and every output directory carries a provenance.json sufficient to re-run.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .grid import Prism, RangeGuardError, finite_real, make_grid
from .kernels import Kernel, kernel_bound
from .carleman import estimate_c0, lambda_grid, random_family, verify_lemma
from .cip import BUDGET_NORMS
from .mfg import (
    BlowupError,
    PicardNonConvergence,
    ProblemSpec,
    bump_form,
    manufacture_triple,
    solve_mfg_picard,
    steady_density,
)
from .stability import holder_sweep, select_parameters
from . import io as mio

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_RANGE = 3

DEFAULT_CONFIG = {
    "prism": {"a": 1.0, "b": 2.0, "half_widths": [], "T": 1.0},
    "grid": {"nx": 65, "nt": 257},
    "kernel": {"type": "separable", "profile": "constant", "amplitude": 0.4, "n1": None},
    "problem": {"u_amplitude": 0.3, "coupling_gain": 1.0},
    "solver": {"damping": 1.0, "tol": 1e-9, "max_iter": 80},
    "stability": {
        "rho": "1/2",
        "epsilon": "1/5",
        "lam1": 1.0,
        "scales": [1e-4, 1e-1, 6],
        "perturbation_scale": 1.0,
        "completeness": "full",
    },
    "carleman": {
        "alpha": None,
        "lambdas": [2.0, 4.0, 8.0, 16.0],
        "count": 20,
        "seed": 24301,
        "restricted": False,
    },
    "lemmas": {"samples": 10, "seed": 123, "lambdas": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]},
    "out": "mfglab-out",
}


class ConfigError(ValueError):
    pass


def _positive(value) -> bool:
    return finite_real(value) and value > 0


def _integer(lo: int):
    return lambda value: type(value) is int and value >= lo


def _scales(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 3
        and finite_real(value[0])
        and finite_real(value[1])
        and 0 < value[0] < value[1]
        and type(value[2]) is int
        and value[2] >= 2
    )


# (section, key, predicate, requirement): the config values that no library
# constructor checks.  Every command checks all of them before any work.
_RULES = (
    ("solver", "damping", lambda v: finite_real(v) and 0.0 < v <= 1.0, "must lie in (0, 1]"),
    ("solver", "max_iter", _integer(1), "must be an integer >= 1"),
    ("solver", "tol", _positive, "must be a finite number > 0"),
    ("problem", "u_amplitude", finite_real, "must be a finite number"),
    ("problem", "coupling_gain", finite_real, "must be a finite number"),
    ("stability", "lam1", _positive, "must be a finite number > 0"),
    ("stability", "scales", _scales,
     "must be [lo, hi, count] with 0 < lo < hi and count >= 2"),
    ("stability", "perturbation_scale", lambda v: finite_real(v) and v != 0,
     "must be a finite nonzero number"),
    ("stability", "completeness", lambda v: v in tuple(BUDGET_NORMS),
     f"must be {' or '.join(map(repr, BUDGET_NORMS))}"),
    ("carleman", "alpha", lambda v: v is None or _positive(v),
     "must be null or a finite number > 0"),
    ("carleman", "count", _integer(1), "must be an integer >= 1"),
    ("carleman", "seed", _integer(0), "must be an integer >= 0"),
    ("carleman", "restricted", lambda v: type(v) is bool, "must be true or false"),
    ("lemmas", "samples", _integer(1), "must be an integer >= 1"),
    ("lemmas", "seed", _integer(0), "must be an integer >= 0"),
)


def _merge(base: dict, extra) -> dict:
    if not isinstance(extra, dict):
        raise ConfigError("config must be a JSON object")
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if key not in out:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(out[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            for sub, sval in val.items():
                if sub not in out[key]:
                    raise ConfigError(f"unknown config key {key!r}.{sub!r}")
                out[key][sub] = sval
        else:
            out[key] = val
    return out


def load_run(args):
    """The config and the run it describes, ``(cfg, grid, kernel, params)``:
    every value is checked, and the grid and the kernel (against its declared
    bound ``n1``) are built, before any work, whatever the command.  The
    parameter calculus ``params`` is built for the commands that read it and
    is None for the others."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        except ValueError as e:
            # malformed JSON, bytes that are not UTF-8, or an integer past
            # Python's digit limit
            raise ConfigError(f"config is not valid JSON: {e}")
        cfg = _merge(cfg, payload)
    if args.out is not None:
        cfg["out"] = args.out
    for section, key, ok, requirement in _RULES:
        if not ok(cfg[section][key]):
            raise ConfigError(f"{section}.{key} {requirement}")
    if not isinstance(cfg["out"], str) or not cfg["out"]:
        raise ConfigError(f"out must be a non-empty path string, got {cfg['out']!r}")
    # each lemma verdict reads a trend in lambda, so it needs two values
    for section, distinct in (("carleman", 1), ("lemmas", 2)):
        try:
            lambda_grid(cfg[section]["lambdas"], distinct=distinct)
        except RangeGuardError:
            raise
        except ValueError as e:
            raise ConfigError(str(e))
    p = cfg["prism"]
    try:
        prism = Prism(p["a"], p["b"], tuple(p["half_widths"]), p["T"])
        grid = make_grid(prism, cfg["grid"]["nx"], cfg["grid"]["nt"])
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"prism/grid: {e}")
    try:
        kernel = Kernel(**cfg["kernel"])
        kernel_bound(kernel, grid)
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"kernel: {e}")
    stab = cfg["stability"]
    try:
        # a JSON number reads as the decimal it spells: 0.2 is 1/5, as "0.2" is
        rho, epsilon = (
            Fraction(repr(v)) if isinstance(v, float) else Fraction(v)
            for v in (stab["rho"], stab["epsilon"])
        )
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as e:
        raise ConfigError(f"stability.rho/epsilon: {e}")
    if not 0 < rho < 1:
        raise ConfigError("rho must lie in (0, 1)")
    # epsilon's window depends on T, so it binds only where the calculus is
    # read: by sweep and params, and by carleman and lemmas for a null alpha
    params = None
    if args.command in ("sweep", "params") or (
        args.command in ("carleman", "lemmas") and cfg["carleman"]["alpha"] is None
    ):
        try:
            params = select_parameters(rho, epsilon, prism, stab["lam1"])
        except (ValueError, OverflowError) as e:
            raise ConfigError(str(e))
    return cfg, grid, kernel, params


def _manufactured_problem(cfg: dict, grid, kernel):
    """Default manufactured setup, ``(triple, spec)``: unit coefficient
    ``triple.k``, compatible density, and ``spec.f`` scaled by the
    coupling gain."""
    prob = cfg["problem"]
    try:
        u_form = bump_form(grid.prism, amplitude=prob["u_amplitude"])
        triple, f = manufacture_triple(
            grid, kernel, np.ones(grid.shape_space), u_form, steady_density(grid)
        )
    except ValueError as e:
        raise ConfigError(f"problem: {e}")
    gain = prob["coupling_gain"]
    if gain != 1.0:
        f = f * float(gain)
    return triple, ProblemSpec(grid, kernel, f, triple.u, triple.m)


def _perturbation(grid) -> np.ndarray:
    """The sin^2 profile of x1, constant over the cross-section."""
    x = grid.axis_coords(0)
    profile = np.sin(np.pi * (x - grid.prism.a) / (grid.prism.b - grid.prism.a)) ** 2
    return np.broadcast_to(profile.reshape((-1,) + (1,) * (grid.dim - 1)), grid.shape_space)


def _alpha(cfg: dict, params) -> float:
    """The weight exponent: ``carleman.alpha``, or the calculus's where that
    is null."""
    alpha = cfg["carleman"]["alpha"]
    return float(params.alpha if alpha is None else alpha)


def _save_provenance(cfg: dict, command: str) -> None:
    mio.save_provenance(
        cfg["out"],
        {"command": command, "config": cfg, "package": "mfglab", "version": __version__},
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_forward(cfg, grid, kernel, params) -> int:
    triple, spec = _manufactured_problem(cfg, grid, kernel)
    outdir = cfg["out"]
    try:
        solved = solve_mfg_picard(spec, triple.k, **cfg["solver"])
    except PicardNonConvergence as e:
        os.makedirs(outdir, exist_ok=True)
        mio.save_history_csv(e.history, os.path.join(outdir, "history.csv"))
        _save_provenance(cfg, "forward")
        print(f"forward solve did not converge: {e}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    mio.save_triple_dir(solved, outdir, f=spec.f, kernel=kernel)
    _save_provenance(cfg, "forward")
    print(f"converged in {solved.report['iterations']} iterations; wrote {outdir}")
    return EXIT_OK


def cmd_manufacture(cfg, grid, kernel, params) -> int:
    triple, spec = _manufactured_problem(cfg, grid, kernel)
    outdir = cfg["out"]
    mio.save_triple_dir(triple, outdir, f=spec.f, kernel=kernel)
    _save_provenance(cfg, "manufacture")
    print(f"wrote manufactured triple to {outdir} (m_min={triple.report['m_min']:.6g})")
    return EXIT_OK


def cmd_carleman(cfg, grid, kernel, params) -> int:
    car = cfg["carleman"]
    members = random_family(grid, count=car["count"], seed=car["seed"])
    c0, lambda0, reports = estimate_c0(
        grid, members, _alpha(cfg, params), car["lambdas"], restricted=car["restricted"]
    )
    outdir = cfg["out"]
    mio.save_carleman_family(reports, outdir, c0, lambda0)
    _save_provenance(cfg, "carleman")
    if c0 is None:
        print("no lambda constrained the constant; wrote family sweep")
    else:
        print(f"empirical C0 = {c0:.6g} at lambda0 = {lambda0:g}; wrote {outdir}")
    return EXIT_OK


def cmd_lemmas(cfg, grid, kernel, params) -> int:
    lem = cfg["lemmas"]
    samples = random_family(grid, count=lem["samples"], seed=lem["seed"])
    reports = verify_lemma(
        grid, samples, alpha=_alpha(cfg, params), lambdas=lem["lambdas"]
    )
    outdir = cfg["out"]
    mio.save_lemma_reports(reports, outdir)
    _save_provenance(cfg, "lemmas")
    ok = sum(1 for r in reports if r.passed is not False)
    print(f"{ok}/{len(reports)} lemma checks passed or bounded; wrote {outdir}")
    return EXIT_OK


def cmd_params(cfg, grid, kernel, params) -> int:
    for key, val in mio.stability_params_to_dict(params).items():
        print(f"{key} = {val}")
    return EXIT_OK


def cmd_sweep(cfg, grid, kernel, params) -> int:
    stab = cfg["stability"]
    lo, hi, count = stab["scales"]
    scales = np.geomspace(lo, hi, count)
    delta_k = stab["perturbation_scale"] * _perturbation(grid)
    # the largest coefficient k1 + scale * delta_k (k1 = 1) must be a double
    # before any solve; a Python float overflows to inf without a warning
    if not math.isfinite(1.0 + float(scales[-1]) * float(np.max(np.abs(delta_k)))):
        raise RangeGuardError(
            f"scale = {scales[-1]:g} with perturbation_scale = "
            f"{stab['perturbation_scale']:g} takes the coefficient "
            f"k1 + scale * delta_k out of floating-point range"
        )
    triple, spec = _manufactured_problem(cfg, grid, kernel)
    try:
        report = holder_sweep(
            spec,
            triple.k,
            delta_k,
            scales,
            eps=float(params.epsilon),
            completeness=stab["completeness"],
            **cfg["solver"],
        )
    except PicardNonConvergence as e:
        print(f"base forward solve did not converge: {e}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    outdir = cfg["out"]
    mio.save_sweep_report(report, outdir, params)
    _save_provenance(cfg, "sweep")
    print(
        f"fitted slope {report.slope:.4f} over {report.delta_decades():.2f} "
        f"decades of delta (r^2 = {report.r_squared:.5f}); wrote {outdir}"
    )
    if report.excluded:
        print(f"{len(report.excluded)} scales excluded for non-convergence")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "forward": (cmd_forward, "run the coupled forward solver"),
    "manufacture": (cmd_manufacture, "write a manufactured solution triple"),
    "carleman": (cmd_carleman, "weight-functional family sweep"),
    "lemmas": (cmd_lemmas, "integral lemma checks"),
    "sweep": (cmd_sweep, "end-to-end exponent sweep"),
    "params": (cmd_params, "print the parameter calculus"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfglab",
        description="numerical laboratory for a coefficient problem in a "
        "coupled value/density system",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](*load_run(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (RangeGuardError, BlowupError) as e:
        print(e, file=sys.stderr)
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
