"""Experiment runner.

Subcommands cover the forward solver, manufactured-solution generation, the
weight-functional sweep, the integral-lemma checks, the end-to-end exponent
sweep, and the parameter calculus.  Configuration is a single JSON file;
command-line flags override file keys.  Exit codes: 0 success, 1
configuration error, 2 solver non-convergence, 3 numeric-range guard.

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
from .grid import Prism, make_grid
from .kernels import HeavisideCausal, SeparableDelta, kernel_bound
from .carleman import (
    LAMBDA_MAX,
    estimate_c0,
    random_family,
    verify_lemma,
)
from .mfg import (
    PicardNonConvergence,
    bump_form,
    manufacture_triple,
    spec_for_triple,
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
    "solver": {"damping": 0.5, "tol": 1e-9, "max_iter": 80},
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


class RangeGuardError(ValueError):
    """A setting would take the weight out of floating-point range."""


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
        kernel = mio.kernel_from_dict(cfg["kernel"])
        kernel_bound(kernel, grid)
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"kernel: {e}")
    return kernel


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _count(value, name: str) -> int:
    """``value`` checked to be an integer >= 1 (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1")
    return value


def _solver_params(cfg: dict) -> dict:
    """Keyword arguments of the coupled solve, checked."""
    sol = cfg["solver"]
    damping, max_iter, tol = sol["damping"], sol["max_iter"], sol["tol"]
    if not isinstance(damping, (int, float)) or not 0.0 < damping <= 1.0:
        raise ConfigError("solver.damping must lie in (0, 1]")
    _count(max_iter, "solver.max_iter")
    if not (_is_number(tol) and 0.0 < tol < float("inf")):
        raise ConfigError("solver.tol must be a finite number > 0")
    return {"damping": damping, "max_iter": max_iter, "tol": tol}


def _check_lambda_grid(lambdas) -> None:
    """Every lambda in [1, LAMBDA_MAX]; above the cap is a range error."""
    if not isinstance(lambdas, list) or not lambdas:
        raise ConfigError("lambda grid must be a non-empty list of numbers")
    for lam in lambdas:
        if not _is_number(lam):
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
    triple, f = manufacture_triple(grid, kernel, k1, u_form, m0)
    gain = prob["coupling_gain"]
    if gain != 1.0:
        f = f * float(gain)
    spec = spec_for_triple(triple, kernel, f)
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
    solver = _solver_params(cfg)
    grid, kernel, k1, _, f, spec = _manufactured_problem(cfg)
    outdir = cfg["out"]
    try:
        triple = solve_mfg_picard(spec, k1, **solver)
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
    if alpha is not None:
        if not alpha > 0:
            raise ConfigError("carleman.alpha must be positive")
        return float(alpha)
    return float(_stability_params(cfg).alpha)


def cmd_carleman(args) -> int:
    cfg = load_config(args)
    _, grid = _build_geometry(cfg)
    car = cfg["carleman"]
    _check_lambda_grid(car["lambdas"])
    alpha = _carleman_alpha(cfg)
    members = random_family(
        grid, count=_count(car["count"], "carleman.count"), seed=car["seed"]
    )
    c0, lambda0, reports = estimate_c0(
        members, alpha, car["lambdas"], restricted=car["restricted"]
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
    _check_lambda_grid(lem["lambdas"])
    alpha = _carleman_alpha(cfg)
    members = random_family(
        grid, count=_count(lem["samples"], "lemmas.samples"), seed=lem["seed"]
    )
    lemma_kernels = {
        "spatial": SeparableDelta(),
        "causal": HeavisideCausal(),
        "time-integral": None,
    }
    reports = []
    for which, kern in lemma_kernels.items():
        for h in members:
            reports.append(
                verify_lemma(which, h, kernel=kern, alpha=alpha, lambdas=lem["lambdas"])
            )
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
        rho = Fraction(stab["rho"])
        epsilon = Fraction(stab["epsilon"])
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"stability.rho/epsilon: {e}")
    try:
        return select_parameters(rho, epsilon, prism, stab["lam1"])
    except ValueError as e:
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
    solver = _solver_params(cfg)
    stab = cfg["stability"]
    bounds = stab["scales"]
    if not (
        isinstance(bounds, list)
        and len(bounds) == 3
        and all(_is_number(v) and math.isfinite(v) for v in bounds)
        and 0 < bounds[0] < bounds[1]
        and int(bounds[2]) >= 2
    ):
        raise ConfigError(
            "stability.scales must be [lo, hi, count] with 0 < lo < hi and count >= 2"
        )
    if stab["completeness"] not in ("full", "incomplete"):
        raise ConfigError("stability.completeness must be 'full' or 'incomplete'")
    lo, hi, count = bounds
    scales = np.geomspace(lo, hi, int(count))
    grid, kernel, k1, _, f, spec = _manufactured_problem(cfg)
    delta_k = stab["perturbation_scale"] * _perturbation(grid)
    try:
        report = holder_sweep(
            spec,
            k1,
            delta_k,
            scales,
            eps=float(params.epsilon),
            completeness=stab["completeness"],
            **solver,
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
    except RangeGuardError as e:
        print(e, file=sys.stderr)
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
