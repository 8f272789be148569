"""Exponential weight, weighted coercivity functional, and integral lemma checks.

The weight is

    phi_lam(x1, t) = exp[2 lam (x1^2 - alpha (t - T/2)^2)],

a function of the first spatial coordinate and time only.  Its maximum over
the closed cylinder sits at the node (b, T/2) with value exp(2 lam b^2); its
minimum over the eps-truncated cylinder sits at (a, eps) and (a, T-eps).

All weighted integrals are evaluated against the rescaled weight
phi / exp(2 lam b^2), whose values lie in (0, 1], so no exponent that is
actually materialized ever exceeds roughly lam * b^2 (the boundary factor
exp(3 lam b^2) becomes exp(lam b^2) after the shared rescaling).  Inequality
checks between terms carrying the same scale are unaffected.  LAMBDA_MAX
caps the usable parameter range: beyond 64 the weight's dynamic range is
too wide for double precision even in rescaled form.

The two-sided functional check reads

    lhs >= C0 * (main - boundary - negligible)

with the components defined in ``carleman_sweep``.  Each term is computed
once for the inputs it depends on: the derivatives and norms once per test
function, the squared operator once per sign, and the weighted sums once per
lambda, against a weight built on the (x1, t) axes alone.  C0 is existence
only in the underlying theory; here it is estimated as the infimum of
lhs / bracket over a documented seeded test family and published per grid,
never asserted as a universal constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    Field,
    Grid,
    Prism,
    dt,
    grad_sq,
    laplacian,
    mixed_xixj,
    snap_epsilon,
    snapshot,
    time_integral_from_t0,
    trace,
)
from .kernels import HeavisideCausal, Kernel, SeparableDelta, apply_kernel
from .norms import norm_spatial, trace_norm, weighted_sum

__all__ = [
    "LAMBDA_MAX",
    "CarlemanParams",
    "CarlemanReport",
    "LemmaReport",
    "weight_phi",
    "weight_log_values",
    "scaled_weight_values",
    "weight_extrema",
    "carleman_sweep",
    "estimate_c0",
    "random_family",
    "verify_lemma",
]

LAMBDA_MAX = 64.0
_OVERFLOW_EXPONENT = 700.0
FAMILY_SEED = 0x5EED
# both operators d_t + Lap and d_t - Lap
_SIGNS = (1, -1)
# u must vanish to this tolerance off the outflow face in the restricted check
_RESTRICTED_TOL = 1e-10
# verify_lemma's flatness cap on max/min of a kernel ratio, and the window
# of log-log slopes the time-integral ratio must fall in
_SPREAD_CAP = 10.0
_SLOPE_WINDOW = (-1.15, -0.85)


@dataclass(frozen=True)
class CarlemanParams:
    """Large parameter and time-focusing coefficient of the weight."""

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.lam >= 1.0:
            raise ValueError(f"lambda must be >= 1, got {self.lam}")
        if not self.lam <= LAMBDA_MAX:
            raise ValueError(f"lambda {self.lam} exceeds LAMBDA_MAX={LAMBDA_MAX}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def negligible_decays(self, prism: Prism) -> bool:
        """True when alpha T^2/4 > b^2, so the end-time term decays in lambda."""
        return self.alpha * prism.T**2 / 4.0 - prism.b**2 > 0.0


@dataclass(frozen=True)
class CarlemanReport:
    """Per-lambda terms of the functional check, in shared rescaled units.

    ``lhs``, ``main``, ``boundary`` and ``negligible`` are all divided by
    exp(2 lam b^2), the weight's peak, for the row's lambda;
    ``main``/``boundary``/``negligible`` are the C0-free brackets (multiply
    by C0 to get the inequality's right side).  ``negligible_log`` is the natural log of the unscaled negligible
    term, kept separately because the scaled value underflows by design.
    """

    lambdas: tuple[float, ...]
    lhs: tuple[float, ...]
    main: tuple[float, ...]
    boundary: tuple[float, ...]
    negligible: tuple[float, ...]
    negligible_log: tuple[float, ...]
    passed: tuple[bool, ...]
    sign: int
    restricted: bool

    def __post_init__(self) -> None:
        for name in ("lhs", "main", "boundary", "negligible"):
            vals = getattr(self, name)
            if any(v < 0.0 for v in vals):
                raise ValueError(f"{name} integral must be nonnegative")


def weight_log_values(params: CarlemanParams, grid: Grid) -> np.ndarray:
    """log phi (exact, no rescaling) of shape (nx1, 1, ..., 1, nt).

    phi depends on x1 and t only, so the array broadcasts against fields.
    """
    ones = (1,) * (grid.dim - 1)
    x1 = grid.axis_coords(0).reshape(-1, *ones, 1)
    t = grid.times.reshape(1, *ones, -1)
    return 2.0 * params.lam * (x1**2 - params.alpha * (t - grid.prism.T / 2.0) ** 2)


def weight_phi(params: CarlemanParams, grid: Grid) -> tuple[Field, float]:
    """The weight as a positive field, plus the log of its removed scale.

    When 2 lam b^2 stays below the overflow guard the field holds the
    literal weight values and the returned scale is 0.  Otherwise the field
    holds phi / exp(2 lam b^2) and the scale 2 lam b^2 is reported.
    """
    logw = weight_log_values(params, grid)
    peak = 2.0 * params.lam * grid.prism.b**2
    log_scale = peak if peak > _OVERFLOW_EXPONENT else 0.0
    values = np.exp(np.broadcast_to(logw, grid.shape) - log_scale)
    return Field(grid, values, _copy=False), log_scale


def scaled_weight_values(lam: float, alpha: float, grid: Grid) -> np.ndarray:
    """phi / exp(2 lam b^2): values in (0, 1], safe for any lambda <= LAMBDA_MAX.

    Shaped like ``weight_log_values``, to broadcast against fields.
    """
    params = CarlemanParams(lam, alpha)
    logw = weight_log_values(params, grid)
    return np.exp(logw - 2.0 * lam * grid.prism.b**2)


def weight_extrema(params: CarlemanParams, grid: Grid, eps: float | None = None):
    """Computed and closed-form extrema of the weight.

    Returns a dict with the grid max over the full cylinder, the grid min
    over the eps-truncated cylinder (when eps is given), and the closed-form
    values they should equal.
    """
    field, log_scale = weight_phi(params, grid)
    vals = field.values
    prism = grid.prism
    out = {
        "max": float(np.max(vals) * math.exp(log_scale)),
        "max_exact": math.exp(2.0 * params.lam * prism.b**2),
        "argmax_index": tuple(int(i) for i in np.unravel_index(np.argmax(vals), vals.shape)),
    }
    if eps is not None:
        k, eps_snapped = snap_epsilon(grid, eps)
        window = vals[..., k : grid.nt - k]
        out["eps"] = eps_snapped
        out["min"] = float(np.min(window) * math.exp(log_scale))
        out["min_exact"] = math.exp(
            2.0
            * params.lam
            * (prism.a**2 - params.alpha * (prism.T / 2.0 - eps_snapped) ** 2)
        )
    return out


def _ordered_second_sum(u: Field) -> np.ndarray:
    """sum over all ordered pairs (i, j) of u_{x_i x_j}^2."""
    g = u.grid
    total = np.zeros(u.values.shape)
    for i in range(g.dim):
        for j in range(g.dim):
            d = mixed_xixj(g, u.values, i, j)
            total += d * d
    return total


def _boundary_norms_sq(u: Field, faces) -> float:
    """|du/dn|_{H10}^2 + |u|_{H21}^2 summed over the given faces."""
    g = u.grid
    total = 0.0
    for f in faces:
        total += (
            trace_norm(g, f, trace(u, "neumann", f), "H10") ** 2
            + trace_norm(g, f, trace(u, "dirichlet", f), "H21") ** 2
        )
    return total


def _end_norms_sq(u: Field) -> float:
    g = u.grid
    n0 = norm_spatial(g, snapshot(u, 0.0), "H1")
    nT = norm_spatial(g, snapshot(u, g.prism.T), "H1")
    return n0**2 + nT**2


def _passes(row: dict, c0: float) -> bool:
    bracket = row["main"] - row["boundary"] - row["negligible"]
    rhs = c0 * bracket
    slack = 1e-12 * max(abs(row["lhs"]), abs(rhs), 1.0e-300)
    return row["lhs"] - rhs >= -slack


def _check_restricted_precondition(u: Field) -> None:
    for f in u.grid.faces():
        if f.axis == 0 and f.side == +1:
            continue
        worst = float(np.max(np.abs(trace(u, "dirichlet", f))))
        if worst > _RESTRICTED_TOL:
            raise ValueError(
                f"restricted functional requires u = 0 off the outflow face; "
                f"max |u| = {worst:.3e} on face {f.label}"
            )


def _functional_rows(
    u: Field,
    signs: Sequence[int],
    lambdas: Sequence[float],
    alpha: float,
    *,
    restricted: bool,
) -> list[list[dict]]:
    """Rows of the functional for each sign (outer list) and lambda (inner).

    Each term is computed once for the inputs it depends on: derivatives and
    boundary and end-time norms once per member, the squared operator once
    per sign, the weight and the weighted sums once per lambda.
    """
    if restricted:
        _check_restricted_precondition(u)
    for sign in signs:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
    g = u.grid
    prism = g.prism

    ut = dt(u).values
    lap = laplacian(g, u.values)
    op_sq = []
    for sign in signs:
        op = ut + sign * lap
        op_sq.append(op * op)
    u_grad_sq = grad_sq(g, u.values)
    second_sq = ut * ut + _ordered_second_sum(u)

    faces = [f for f in g.faces() if f.axis == 0 and f.side == +1] if restricted else list(g.faces())
    bnd_norms = _boundary_norms_sq(u, faces)
    end_norms = _end_norms_sq(u)
    gap = alpha * prism.T**2 / 4.0 - prism.b**2

    rows: list[list[dict]] = [[] for _ in signs]
    for lam in lambdas:
        phi_s = scaled_weight_values(lam, alpha, g)
        log_scale = 2.0 * lam * prism.b**2
        main = (1.0 / lam) * weighted_sum(g, second_sq * phi_s)
        main += weighted_sum(g, (lam * u_grad_sq + lam**3 * u.values * u.values) * phi_s)
        # exp(3 lam b^2) becomes exp(lam b^2) after the shared rescaling
        boundary = bnd_norms * math.exp(lam * prism.b**2)
        negligible = end_norms * math.exp(min(-2.0 * lam * gap - log_scale, _OVERFLOW_EXPONENT))
        negligible_log = (
            math.log(end_norms) - 2.0 * lam * gap if end_norms > 0.0 else -math.inf
        )
        for sign_rows, sq in zip(rows, op_sq):
            sign_rows.append(
                {
                    "lam": lam,
                    "lhs": float(weighted_sum(g, sq * phi_s)),
                    "main": float(main),
                    "boundary": float(boundary),
                    "negligible": float(negligible),
                    "negligible_log": float(negligible_log),
                }
            )
    return rows


def _build_report(
    rows: list[dict], c0: float | None, *, sign: int, restricted: bool
) -> CarlemanReport:
    rows = sorted(rows, key=lambda r: r["lam"])
    passed = tuple(_passes(r, c0) if c0 is not None else True for r in rows)
    return CarlemanReport(
        lambdas=tuple(r["lam"] for r in rows),
        lhs=tuple(r["lhs"] for r in rows),
        main=tuple(r["main"] for r in rows),
        boundary=tuple(r["boundary"] for r in rows),
        negligible=tuple(r["negligible"] for r in rows),
        negligible_log=tuple(r["negligible_log"] for r in rows),
        passed=passed,
        sign=sign,
        restricted=restricted,
    )


def carleman_sweep(
    u: Field,
    sign: int,
    alpha: float,
    lambdas: Sequence[float],
    c0_candidate: float,
    *,
    restricted: bool = False,
) -> CarlemanReport:
    """The two-sided functional check over a lambda grid, in ascending lambda.

    Components, all against the shared rescaled weight:

      lhs        = integral (u_t + sign * Lap u)^2 phi
      main       = (1/lam) integral (u_t^2 + sum u_{x_i x_j}^2) phi
                   + integral (lam |grad u|^2 + lam^3 u^2) phi
      boundary   = (|du/dn|_{H10(lateral)}^2 + |u|_{H21(lateral)}^2) exp(3 lam b^2)
      negligible = (|u(.,0)|_{H1}^2 + |u(.,T)|_{H1}^2) exp(-2 lam (alpha T^2/4 - b^2))

    and each row's pass flag asserts lhs >= c0_candidate (main - boundary -
    negligible).  With ``restricted`` the boundary component reads only the
    outflow face x1 = b, and u must vanish (to 1e-10) on every other lateral
    face; otherwise a ValueError is raised.
    """
    (rows,) = _functional_rows(u, (sign,), lambdas, alpha, restricted=restricted)
    return _build_report(rows, c0_candidate, sign=sign, restricted=restricted)


def estimate_c0(
    members: Sequence[Field],
    alpha: float,
    lambdas: Sequence[float],
    *,
    restricted: bool = False,
) -> tuple[float | None, float, list[CarlemanReport]]:
    """Infimum of lhs/bracket over the family, both operators, all lambdas.

    Cells whose bracket is nonpositive impose no constraint (any positive
    C0 passes there).  Returns (c0, lambda0, reports); c0 is None when no
    cell constrains it.  lambda0 is the smallest swept lambda at which the
    reported c0 makes every member pass from there on; with a true infimum
    that is the smallest lambda in the sweep.  ``restricted`` has the
    meaning and the precondition it has in ``carleman_sweep``.
    """
    lambdas = sorted(float(x) for x in lambdas)
    reports: list[CarlemanReport] = []
    caps = []
    for u in members:
        member_rows = _functional_rows(u, _SIGNS, lambdas, alpha, restricted=restricted)
        for sign, rows in zip(_SIGNS, member_rows):
            reports.append(_build_report(rows, None, sign=sign, restricted=restricted))
            for row in rows:
                bracket = row["main"] - row["boundary"] - row["negligible"]
                if bracket > 0.0:
                    caps.append(row["lhs"] / bracket)
    c0 = min(caps) if caps else None
    return c0, lambdas[0], reports


def random_family(
    grid: Grid,
    count: int = 20,
    seed: int = FAMILY_SEED,
    *,
    flatten_space: bool = True,
) -> list[Field]:
    """Seeded family of smooth products of low-order trig and polynomial factors.

    Each member is a product over axes (and time) of
    c0 + c1 s + c2 sin(pi s) + c3 cos(pi s) with coefficients uniform in
    [-1, 1], where s is the normalized coordinate.  With ``flatten_space``
    every spatial axis is multiplied by sin^2(pi s), which zeroes the
    lateral Dirichlet and Neumann data so the functional's boundary
    component cannot swamp the volume bracket.  Time is never flattened,
    keeping the end-time term alive.
    """
    rng = np.random.default_rng(seed)
    mesh = grid.spacetime_meshgrid()
    prism = grid.prism
    members = []
    for _ in range(count):
        values = np.ones(grid.shape)
        for axis in range(grid.dim):
            lo, hi = prism.axis_bounds(axis)
            s = (mesh[axis] - lo) / (hi - lo)
            c = rng.uniform(-1.0, 1.0, 4)
            factor = c[0] + c[1] * s + c[2] * np.sin(np.pi * s) + c[3] * np.cos(np.pi * s)
            if flatten_space:
                factor = factor * np.sin(np.pi * s) ** 2
            values = values * factor
        s = mesh[-1] / prism.T
        c = rng.uniform(-1.0, 1.0, 4)
        values = values * (
            c[0] + c[1] * s + c[2] * np.sin(np.pi * s) + c[3] * np.cos(np.pi * s)
        )
        members.append(Field(grid, values, _copy=False))
    return members


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one integral-lemma sweep for one test function."""

    which: str
    lambdas: tuple[float, ...]
    ratios: tuple[float, ...]
    c_bound: float
    spread: float | None
    slope: float | None
    passed: bool | None
    degenerate: bool


_KERNEL_LEMMAS = {"spatial": SeparableDelta, "causal": HeavisideCausal}


def verify_lemma(
    which: str,
    h: Field,
    *,
    kernel: Kernel | None = None,
    alpha: float,
    lambdas: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
) -> LemmaReport:
    """Numerical check of one of the three weighted integral lemmas.

    "spatial" and "causal" bound the weighted energy of the kernel integral
    of h by the weighted energy of h; the check computes ratio(lam) and
    asserts both boundedness (reported as the empirical constant) and
    flatness across the sweep (max/min <= _SPREAD_CAP = 10).
    "time-integral" bounds the energy of the running time integral from T/2
    by (1/lam) times the energy of h; the check reports the lam-normalized
    ratio and asserts the log-log slope of the raw ratio against lambda
    lies in _SLOPE_WINDOW = [-1.15, -0.85].

    An identically-zero h is degenerate: ratios are zero and no assertion is
    made (passed is None).
    """
    g = h.grid
    lambdas = sorted(float(x) for x in lambdas)
    for lam in lambdas:
        if not 1.0 <= lam <= LAMBDA_MAX:
            raise ValueError(f"lambda grid must lie in [1, {LAMBDA_MAX}], got {lam}")
    if which in _KERNEL_LEMMAS:
        if kernel is None:
            raise ValueError(f"the {which} bound needs a kernel")
        if not isinstance(kernel, _KERNEL_LEMMAS[which]):
            raise ValueError(
                f"the {which} bound is stated for {_KERNEL_LEMMAS[which].__name__} kernels, "
                f"got {type(kernel).__name__}"
            )
        target = apply_kernel(kernel, h).values
    elif which == "time-integral":
        target = time_integral_from_t0(g, h.values)
    else:
        raise ValueError(f"unknown bound {which!r}")

    raw = []
    degenerate = False
    for lam in lambdas:
        phi_s = scaled_weight_values(lam, alpha, g)
        num = weighted_sum(g, target * target * phi_s)
        den = weighted_sum(g, h.values * h.values * phi_s)
        if den <= 0.0:
            degenerate = True
            raw.append(0.0)
        else:
            raw.append(float(num / den))

    if which == "time-integral":
        ratios = tuple(r * lam for r, lam in zip(raw, lambdas))
        c_bound = max(ratios)
        if degenerate or any(r <= 0.0 for r in raw):
            return LemmaReport(which, tuple(lambdas), ratios, c_bound, None, None, None, True)
        slope = float(
            np.polyfit(np.log(np.asarray(lambdas)), np.log(np.asarray(raw)), 1)[0]
        )
        passed = _SLOPE_WINDOW[0] <= slope <= _SLOPE_WINDOW[1]
        return LemmaReport(which, tuple(lambdas), ratios, c_bound, None, slope, passed, False)

    ratios = tuple(raw)
    c_bound = max(ratios)
    if degenerate or min(ratios) <= 0.0:
        return LemmaReport(which, tuple(lambdas), ratios, c_bound, None, None, None, True)
    spread = max(ratios) / min(ratios)
    return LemmaReport(
        which, tuple(lambdas), ratios, c_bound, spread, None, spread <= _SPREAD_CAP, False
    )
