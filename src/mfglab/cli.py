"""Experiment runner.

Subcommands cover the forward solver, manufactured-solution generation, the
weight-functional sweep, the integral-lemma checks, the end-to-end exponent
sweep, and the parameter calculus.  Configuration is a single JSON file;
command-line flags override file keys.  Exit codes: 0 success, 1
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
from .grid import Prism, finite_real, make_grid
from .kernels import Kernel, kernel_bound
from .carleman import (
    LAMBDA_MAX,
    estimate_c0,
    random_family,
    verify_lemma,
)
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


class RangeGuardError(ValueError):
    """A setting would take the weight or a coefficient out of floating-point
    range."""


def _merge(base: dict, extra: dict) -> dict:
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


def load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = _merge(cfg, json.load(fh))
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
    if getattr(args, "rho", None) is not None:
        cfg["stability"]["rho"] = args.rho
    if getattr(args, "epsilon", None) is not None:
        cfg["stability"]["epsilon"] = args.epsilon
    if getattr(args, "lambda_grid", None) is not None:
        try:
            cfg["carleman"]["lambdas"] = [float(s) for s in args.lambda_grid.split(",")]
        except ValueError:
            raise ConfigError(f"--lambda-grid must be comma-separated numbers")
    if getattr(args, "seed", None) is not None:
        cfg["carleman"]["seed"] = args.seed
        cfg["lemmas"]["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    for section, key, ok, requirement in _RULES:
        if not ok(cfg[section][key]):
            raise ConfigError(f"{section}.{key} {requirement}")
    if not isinstance(cfg["out"], str) or not cfg["out"]:
        raise ConfigError(f"out must be a non-empty path string, got {cfg['out']!r}")
    _check_lambda_grid(cfg["carleman"]["lambdas"])
    _check_lambda_grid(cfg["lemmas"]["lambdas"])
    # each lemma verdict reads a trend in lambda
    if len(set(cfg["lemmas"]["lambdas"])) < 2:
        raise ConfigError("lemmas.lambdas must hold at least two distinct values")
    return cfg


def _build_geometry(cfg: dict):
    p = cfg["prism"]
    try:
        prism = Prism(p["a"], p["b"], tuple(p["half_widths"]), p["T"])
        grid = make_grid(prism, cfg["grid"]["nx"], cfg["grid"]["nt"])
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"prism/grid: {e}")
    return prism, grid


def _build_kernel(cfg: dict, grid):
    """The configured kernel, checked against its declared bound ``n1``."""
    try:
        kernel = Kernel(**cfg["kernel"])
        kernel_bound(kernel, grid)
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"kernel: {e}")
    return kernel


def _check_lambda_grid(lambdas) -> None:
    """Every lambda in [1, LAMBDA_MAX]; above the cap is a range error."""
    if not isinstance(lambdas, list) or not lambdas:
        raise ConfigError("lambda grid must be a non-empty list of numbers")
    for lam in lambdas:
        if type(lam) not in (int, float):
            raise ConfigError(f"lambda grid values must be numbers, got {lam!r}")
        if lam > LAMBDA_MAX:
            raise RangeGuardError(
                f"lambda = {lam:g} exceeds the overflow guard LAMBDA_MAX = "
                f"{LAMBDA_MAX:g}; the weight would leave floating-point range"
            )
        if not lam >= 1.0:
            raise ConfigError(f"lambda grid values must be >= 1, got {lam:g}")


def _manufactured_problem(cfg: dict):
    """Default manufactured setup: unit coefficient, compatible density."""
    prism, grid = _build_geometry(cfg)
    kernel = _build_kernel(cfg, grid)
    prob = cfg["problem"]
    u_form = bump_form(prism, amplitude=prob["u_amplitude"])
    m0 = steady_density(grid)
    k1 = np.ones(grid.shape_space)
    try:
        triple, f = manufacture_triple(grid, kernel, k1, u_form, m0)
    except ValueError as e:
        raise ConfigError(f"problem: {e}")
    gain = prob["coupling_gain"]
    if gain != 1.0:
        f = f * float(gain)
    spec = ProblemSpec(grid, kernel, f, triple.u, triple.m)
    return grid, kernel, k1, triple, f, spec


def _perturbation(grid) -> np.ndarray:
    x = grid.axis_coords(0)
    shape = np.sin(np.pi * (x - grid.prism.a) / (grid.prism.b - grid.prism.a)) ** 2
    cross = shape
    for axis in range(1, grid.dim):
        cross = np.multiply.outer(cross, np.ones(grid.shape_space[axis]))
    return cross


def _provenance(cfg: dict, command: str) -> dict:
    return {"command": command, "config": cfg, "package": "mfglab", "version": __version__}


# ---------------------------------------------------------------------------
# subcommands


def cmd_forward(args) -> int:
    cfg = load_config(args)
    grid, kernel, k1, _, f, spec = _manufactured_problem(cfg)
    outdir = cfg["out"]
    try:
        triple = solve_mfg_picard(spec, k1, **cfg["solver"])
    except PicardNonConvergence as e:
        os.makedirs(outdir, exist_ok=True)
        mio.save_history_csv(e.history, os.path.join(outdir, "history.csv"))
        mio.save_provenance(outdir, _provenance(cfg, "forward"))
        print(f"forward solve did not converge: {e}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    mio.save_triple_dir(triple, outdir, f=f, kernel=kernel)
    mio.save_provenance(outdir, _provenance(cfg, "forward"))
    print(
        f"converged in {triple.report['iterations']} iterations; wrote {outdir}"
    )
    return EXIT_OK


def cmd_manufacture(args) -> int:
    cfg = load_config(args)
    grid, kernel, k1, triple, f, _ = _manufactured_problem(cfg)
    outdir = cfg["out"]
    mio.save_triple_dir(triple, outdir, f=f, kernel=kernel)
    mio.save_provenance(outdir, _provenance(cfg, "manufacture"))
    print(f"wrote manufactured triple to {outdir} (m_min={triple.report['m_min']:.6g})")
    return EXIT_OK


def _carleman_alpha(cfg: dict) -> float:
    alpha = cfg["carleman"]["alpha"]
    if alpha is None:
        alpha = _stability_params(cfg).alpha
    return float(alpha)


def cmd_carleman(args) -> int:
    cfg = load_config(args)
    _, grid = _build_geometry(cfg)
    car = cfg["carleman"]
    # the boundary factor exp(lam b^2) of the functional must stay a double
    lam, b = max(car["lambdas"]), grid.prism.b
    if lam * b**2 > math.log(sys.float_info.max):
        raise RangeGuardError(
            f"lambda = {lam:g} with b = {b:g} takes the boundary factor "
            f"exp(lambda b^2) = exp({lam * b**2:g}) out of floating-point range"
        )
    alpha = _carleman_alpha(cfg)
    members = random_family(grid, count=car["count"], seed=car["seed"])
    c0, lambda0, reports = estimate_c0(
        grid, members, alpha, car["lambdas"], restricted=car["restricted"]
    )
    outdir = cfg["out"]
    mio.save_carleman_family(reports, outdir, c0, lambda0)
    mio.save_provenance(outdir, _provenance(cfg, "carleman"))
    if c0 is None:
        print("no lambda constrained the constant; wrote family sweep")
    else:
        print(f"empirical C0 = {c0:.6g} at lambda0 = {lambda0:g}; wrote {outdir}")
    return EXIT_OK


def cmd_lemmas(args) -> int:
    cfg = load_config(args)
    _, grid = _build_geometry(cfg)
    lem = cfg["lemmas"]
    alpha = _carleman_alpha(cfg)
    samples = random_family(grid, count=lem["samples"], seed=lem["seed"])
    reports = verify_lemma(grid, samples, alpha=alpha, lambdas=lem["lambdas"])
    outdir = cfg["out"]
    mio.save_lemma_reports(reports, outdir)
    mio.save_provenance(outdir, _provenance(cfg, "lemmas"))
    ok = sum(1 for r in reports if r.passed is not False)
    print(f"{ok}/{len(reports)} lemma checks passed or bounded; wrote {outdir}")
    return EXIT_OK


def _stability_params(cfg: dict):
    prism, _ = _build_geometry(cfg)
    stab = cfg["stability"]
    try:
        # a JSON number reads as the decimal it spells, as a flag's string does
        rho, epsilon = (
            Fraction(repr(v)) if isinstance(v, float) else Fraction(v)
            for v in (stab["rho"], stab["epsilon"])
        )
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as e:
        raise ConfigError(f"stability.rho/epsilon: {e}")
    try:
        return select_parameters(rho, epsilon, prism, stab["lam1"])
    except (ValueError, OverflowError) as e:
        raise ConfigError(str(e))


def cmd_params(args) -> int:
    cfg = load_config(args)
    params = _stability_params(cfg)
    for key, val in mio.stability_params_to_dict(params).items():
        print(f"{key} = {val}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    params = _stability_params(cfg)
    stab = cfg["stability"]
    lo, hi, count = stab["scales"]
    scales = np.geomspace(lo, hi, count)
    _, grid = _build_geometry(cfg)
    delta_k = stab["perturbation_scale"] * _perturbation(grid)
    # the largest coefficient k1 + scale * delta_k (k1 = 1) must be a double
    # before any solve; a Python float overflows to inf without a warning
    if not math.isfinite(1.0 + float(scales[-1]) * float(np.max(np.abs(delta_k)))):
        raise RangeGuardError(
            f"scale = {scales[-1]:g} with perturbation_scale = "
            f"{stab['perturbation_scale']:g} takes the coefficient "
            f"k1 + scale * delta_k out of floating-point range"
        )
    grid, kernel, k1, _, f, spec = _manufactured_problem(cfg)
    try:
        report = holder_sweep(
            spec,
            k1,
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
    mio.save_provenance(outdir, _provenance(cfg, "sweep"))
    print(
        f"fitted slope {report.slope:.4f} over {report.delta_decades():.2f} "
        f"decades of delta (r^2 = {report.r_squared:.5f}); wrote {outdir}"
    )
    if report.excluded:
        print(f"{len(report.excluded)} scales excluded for non-convergence")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfglab",
        description="numerical laboratory for a coefficient problem in a "
        "coupled value/density system",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override family seeds")

    p = sub.add_parser("forward", help="run the coupled forward solver")
    common(p)
    p = sub.add_parser("manufacture", help="write a manufactured solution triple")
    common(p)
    p = sub.add_parser("carleman", help="weight-functional family sweep")
    common(p)
    p.add_argument("--lambda-grid", help="comma-separated lambda values")
    p = sub.add_parser("lemmas", help="integral lemma checks")
    common(p)
    p = sub.add_parser("sweep", help="end-to-end exponent sweep")
    common(p)
    p.add_argument("--rho", help="exponent parameter (fraction or decimal)")
    p.add_argument("--epsilon", help="time margin (fraction or decimal)")
    p = sub.add_parser("params", help="print the parameter calculus")
    common(p)
    p.add_argument("--rho", help="exponent parameter (fraction or decimal)")
    p.add_argument("--epsilon", help="time margin (fraction or decimal)")
    return parser


_COMMANDS = {
    "forward": cmd_forward,
    "manufacture": cmd_manufacture,
    "carleman": cmd_carleman,
    "lemmas": cmd_lemmas,
    "sweep": cmd_sweep,
    "params": cmd_params,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (RangeGuardError, BlowupError) as e:
        print(e, file=sys.stderr)
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
