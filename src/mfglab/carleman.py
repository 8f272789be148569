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

with the components defined in ``estimate_c0``.  Each term is computed
once for the inputs it depends on.  Per test function: the boundary and
end-time norms, and the volume integrands (the squared operator once per
sign), each summed over the cross-section axes x2..xn at once, since the
weight does not depend on them; the integrands are built and summed one
block of x1 rows at a time, so no field-sized temporary is made.  Per
block: u_t, each spatial first derivative and each pure second derivative
once; the first derivatives feed |grad u|^2 and the inner derivative of
every mixed one, and the pure ones feed the Laplacian and the sum of
squared second derivatives.  Per lambda: the weight on the (x1, t) axes
alone, built once for the whole family, and the (x1, t) sums of those
reduced integrands against it.  The lemma checks run all three lemmas on
a family of samples in one call: each lambda's weight is built once for
the family, each sample is checked and its energy summed over the
cross-section axes once, and each lambda's h-energy sum serves all three
ratios.  C0 is existence only in the underlying theory; here it
is estimated as the infimum of lhs / bracket over a documented seeded test
family and published per grid, never asserted as a universal constant.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .grid import (
    Grid,
    Prism,
    RangeGuardError,
    cross_section_sum,
    data_faces,
    dt,
    finite_array,
    finite_real,
    first_derivative,
    gradient,
    second_derivative,
    snap_epsilon,
    sum_of_squares,
    time_integral_from_t0,
    trace,
    trapezoid_sum,
)
from .kernels import Kernel, apply_kernel
from .norms import norm, trace_norm

__all__ = [
    "LAMBDA_MAX",
    "lambda_grid",
    "CarlemanParams",
    "CarlemanReport",
    "LemmaReport",
    "scaled_weight_values",
    "weight_extrema",
    "estimate_c0",
    "random_family",
    "verify_lemma",
]

LAMBDA_MAX = 64.0
# both operators d_t + Lap and d_t - Lap
_SIGNS = (1, -1)
# u must vanish to this tolerance off the outflow face in the restricted check
_RESTRICTED_TOL = 1e-10
# verify_lemma's cap on a kernel ratio: on its max/min for the spatial form
# (flatness), on its largest value for the causal form (the stated bound);
# and the window of log-log slopes the time-integral ratio must fall in
_RATIO_CAP = 10.0
_SLOPE_WINDOW = (-1.15, -0.85)
# Space-time nodes of one block of x1 rows that ``_functional_rows`` reduces
# at once: 7 rows at 65x65x129, where a block with its two halo rows is
# 0.6 MB against 4.4 MB for the whole field; a grid of at most this many
# nodes, such as the default 1-D 65x257, is one block.  A block needs at
# least the 3 rows that the one-sided x1 stencils at a face read (4 with
# its halo row).
_FUNCTIONAL_BLOCK_NODES = 65_536
_MIN_BLOCK_ROWS = 3


def lambda_grid(lambdas, *, distinct: int) -> list[float]:
    """``lambdas`` sorted, as floats: the one check of a lambda grid.

    The grid is a non-empty list or tuple of real numbers (bools and ints
    beyond the float range rejected), each in [1, LAMBDA_MAX], with at least
    ``distinct`` distinct values.  A lambda above LAMBDA_MAX raises
    RangeGuardError, since its weight would leave floating-point range; any
    other fault raises ValueError.
    """
    if not isinstance(lambdas, (list, tuple)) or not lambdas:
        raise ValueError("lambda grid must be a non-empty list of numbers")
    for lam in lambdas:
        if not isinstance(lam, numbers.Real) or isinstance(lam, bool):
            raise ValueError(f"lambda grid values must be numbers, got {lam!r}")
        if isinstance(lam, int) and not finite_real(lam):
            raise ValueError(
                "lambda grid values must be numbers in floating-point range, "
                f"got a {len(str(abs(lam)))}-digit integer"
            )
        if lam > LAMBDA_MAX:
            raise RangeGuardError(
                f"lambda = {lam:g} exceeds the overflow guard LAMBDA_MAX = "
                f"{LAMBDA_MAX:g}; the weight would leave floating-point range"
            )
        if not lam >= 1.0:
            raise ValueError(f"lambda grid values must be >= 1, got {lam:g}")
    if len(set(lambdas)) < distinct:
        raise ValueError(f"lambda grid must hold at least {distinct} distinct values")
    return sorted(float(lam) for lam in lambdas)


@dataclass(frozen=True)
class CarlemanParams:
    """Large parameter and time-focusing coefficient of the weight."""

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        lambda_grid([self.lam], distinct=1)
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
            # written so that NaN fails too
            if any(not v >= 0.0 for v in vals):
                raise ValueError(f"{name} integral must be nonnegative, got {vals}")


def scaled_weight_values(lam: float, alpha: float, grid: Grid) -> np.ndarray:
    """phi / exp(2 lam b^2), values in (0, 1], the one builder of the weight.

    phi depends on x1 and t only, so the array is built on those axes, of
    shape (nx1, 1, ..., 1, nt), and broadcasts against fields.  With the peak
    divided out no exponent overflows for any lambda <= LAMBDA_MAX.
    """
    CarlemanParams(lam, alpha)
    ones = (1,) * (grid.dim - 1)
    x1 = grid.axis_coords(0).reshape(-1, *ones, 1)
    t = grid.times.reshape(1, *ones, -1)
    logw = 2.0 * lam * (x1**2 - alpha * (t - grid.prism.T / 2.0) ** 2)
    return np.exp(logw - 2.0 * lam * grid.prism.b**2)


def _weighted_x1t(grid: Grid, sums: np.ndarray, phi_s: np.ndarray) -> float:
    """(x1, t) trapezoid sum of a ``cross_section_sum`` against the weight
    ``phi_s`` from ``scaled_weight_values``."""
    phi_s = phi_s.reshape(sums.shape)
    return trapezoid_sum(grid, sums * phi_s, axes=(0,), time_weights=grid.time_weights())


def weight_extrema(params: CarlemanParams, grid: Grid, eps: float | None = None):
    """Computed and closed-form extrema of the weight.

    Returns a dict with the grid max over the full cylinder, the grid min
    over the eps-truncated cylinder (when eps is given), and the closed-form
    values they should equal.  Both are read from ``scaled_weight_values``
    and multiplied back by exp(2 lam b^2), which raises OverflowError once
    the weight leaves double range.
    """
    vals = scaled_weight_values(params.lam, params.alpha, grid)
    prism = grid.prism
    scale = math.exp(2.0 * params.lam * prism.b**2)
    out = {
        "max": float(np.max(vals) * scale),
        "max_exact": scale,
        "argmax_index": tuple(int(i) for i in np.unravel_index(np.argmax(vals), vals.shape)),
    }
    if eps is not None:
        k, eps_snapped = snap_epsilon(grid, eps)
        window = vals[..., k : grid.nt - k]
        out["eps"] = eps_snapped
        out["min"] = float(np.min(window) * scale)
        gap = params.alpha * (prism.T / 2.0 - eps_snapped) ** 2
        out["min_exact"] = math.exp(2.0 * params.lam * (prism.a**2 - gap))
    return out


def _boundary_norms_sq(grid: Grid, u: np.ndarray, faces) -> float:
    """|du/dn|_{H10}^2 + |u|_{H21}^2 summed over the given faces."""
    total = 0.0
    for f in faces:
        total += (
            trace_norm(grid, f, trace(grid, u, "neumann", f), "H10") ** 2
            + trace_norm(grid, f, trace(grid, u, "dirichlet", f), "H21") ** 2
        )
    return total


def _end_norms_sq(grid: Grid, u: np.ndarray) -> float:
    n0 = norm(grid, u[..., 0], "H1")
    nT = norm(grid, u[..., -1], "H1")
    return n0**2 + nT**2


def _passes(row: dict, c0: float) -> bool:
    bracket = row["main"] - row["boundary"] - row["negligible"]
    rhs = c0 * bracket
    slack = 1e-12 * max(abs(row["lhs"]), abs(rhs), 1.0e-300)
    return row["lhs"] - rhs >= -slack


def _check_restricted_precondition(grid: Grid, u: np.ndarray, faces: Sequence) -> None:
    """u must vanish on every face the functional leaves out of ``faces``."""
    for f in grid.faces():
        if f in faces:
            continue
        worst = float(np.max(np.abs(trace(grid, u, "dirichlet", f))))
        if worst > _RESTRICTED_TOL:
            raise ValueError(
                f"restricted functional requires u = 0 off the outflow face; "
                f"max |u| = {worst:.3e} on face {f.label}"
            )


def _row_blocks(grid: Grid) -> list[tuple[int, int]]:
    """``(start, stop)`` ranges of x1 rows covering the grid in order, each of
    ``_FUNCTIONAL_BLOCK_NODES // (nodes per x1 row)`` rows and at least
    ``_MIN_BLOCK_ROWS``; a shorter tail joins the block before it."""
    nx1 = grid.nx[0]
    rows = max(_MIN_BLOCK_ROWS, _FUNCTIONAL_BLOCK_NODES // math.prod(grid.shape[1:]))
    starts = list(range(0, nx1, rows))
    if len(starts) > 1 and nx1 - starts[-1] < _MIN_BLOCK_ROWS:
        starts.pop()
    return list(zip(starts, starts[1:] + [nx1]))


def _functional_rows(
    grid: Grid,
    u: np.ndarray,
    lambdas: Sequence[float],
    weights: Sequence[np.ndarray],
    alpha: float,
    *,
    restricted: bool,
) -> list[list[dict]]:
    """Rows of the functional for each sign of ``_SIGNS`` (outer) and lambda,
    ``weights`` holding ``scaled_weight_values`` of each lambda.

    Each term is computed once for the inputs it depends on.  Once per
    member: the boundary and end-time norms, and the ``cross_section_sum``
    of each volume integrand (u^2, |grad u|^2, u_t^2 + sum u_{x_i x_j}^2,
    and (u_t + sign Lap u)^2 once per sign), each an ``(nx1, nt)`` array.
    Those five arrays are filled one block of x1 rows at a time
    (``_row_blocks``): the x1 derivatives read the block and one halo row
    on each side, clipped at the x1 faces, so every row sees the stencils
    and the cross-section ``matmul`` it would see in the whole field, and
    the sums are bitwise the same.  Once per block: u_t, the n spatial
    first derivatives, which give |grad u|^2 and, differentiated along
    x_j, each mixed u_{x_i x_j}, and the n pure second derivatives, which
    are summed in axis order into Lap u before they are squared into the
    second-derivative sum; that sum runs over the ordered pairs (i, j)
    with i outer.  A block thus takes 1 + n^2 first and n second
    derivatives.  Only a few arrays of a block's size are alive at once,
    squared in place and dropped once their rows are summed.  Once per
    lambda: the (x1, t) sums of the reduced arrays against its weight.
    """
    prism = grid.prism
    faces = data_faces(grid, restricted)
    _check_restricted_precondition(grid, u, faces)

    nx1 = grid.nx[0]
    op_sq = [np.empty((nx1, grid.nt)) for _ in _SIGNS]
    second_sq, u_grad_sq, u_sq = (np.empty((nx1, grid.nt)) for _ in range(3))
    for start, stop in _row_blocks(grid):
        lo = max(start - 1, 0)
        padded = u[lo : stop + 1]
        keep = slice(start - lo, stop - lo)
        block = u[start:stop]
        ut = dt(grid, block)
        pure = [second_derivative(padded, i, h) for i, h in enumerate(grid.h)]
        # summed in axis order before the pure derivatives are squared
        lap = sum(pure[1:], pure[0])[keep]
        for sq, sign in zip(op_sq, _SIGNS):
            op = (np.add if sign > 0 else np.subtract)(ut, lap)
            op *= op
            sq[start:stop] = cross_section_sum(grid, op)
            del op
        del lap
        ut *= ut
        grad = gradient(grid, padded)
        # u_{x_i x_j} over the ordered pairs (i, j), i outer; a mixed one is
        # the x_j derivative of the gradient's x_i component
        second = sum_of_squares(
            pure[i] if i == j else first_derivative(grad[i], j, grid.h[j])
            for i in range(grid.dim)
            for j in range(grid.dim)
        )[keep]
        del pure
        second += ut
        del ut
        second_sq[start:stop] = cross_section_sum(grid, second)
        del second
        u_grad_sq[start:stop] = cross_section_sum(grid, sum_of_squares(grad)[keep])
        del grad
        u_sq[start:stop] = cross_section_sum(grid, block * block)

    bnd_norms = _boundary_norms_sq(grid, u, faces)
    end_norms = _end_norms_sq(grid, u)
    gap = alpha * prism.T**2 / 4.0 - prism.b**2

    rows: list[list[dict]] = [[] for _ in _SIGNS]
    for lam, phi_s in zip(lambdas, weights):
        log_scale = 2.0 * lam * prism.b**2
        main = (1.0 / lam) * _weighted_x1t(grid, second_sq, phi_s)
        main += _weighted_x1t(grid, lam * u_grad_sq + lam**3 * u_sq, phi_s)
        # exp(3 lam b^2) becomes exp(lam b^2) after the shared rescaling
        boundary = bnd_norms * math.exp(lam * prism.b**2)
        negligible = end_norms * math.exp(-2.0 * lam * gap - log_scale)
        negligible_log = (
            math.log(end_norms) - 2.0 * lam * gap if end_norms > 0.0 else -math.inf
        )
        for sign_rows, sq in zip(rows, op_sq):
            sign_rows.append(
                {
                    "lam": lam,
                    "lhs": float(_weighted_x1t(grid, sq, phi_s)),
                    "main": float(main),
                    "boundary": float(boundary),
                    "negligible": float(negligible),
                    "negligible_log": float(negligible_log),
                }
            )
    return rows


def estimate_c0(
    grid: Grid,
    members: Iterable[np.ndarray],
    alpha: float,
    lambdas: Sequence[float],
    *,
    restricted: bool,
) -> tuple[float | None, float, list[CarlemanReport]]:
    """Infimum of lhs/bracket over the family of space-time arrays on
    ``grid``, both operators, all lambdas.

    The functional's components, all against the shared rescaled weight:

      lhs        = integral (u_t + sign * Lap u)^2 phi
      main       = (1/lam) integral (u_t^2 + sum u_{x_i x_j}^2) phi
                   + integral (lam |grad u|^2 + lam^3 u^2) phi
      boundary   = (|du/dn|_{H10(lateral)}^2 + |u|_{H21(lateral)}^2) exp(3 lam b^2)
      negligible = (|u(.,0)|_{H1}^2 + |u(.,T)|_{H1}^2) exp(-2 lam (alpha T^2/4 - b^2))

    with sign +1 and -1 for the operators d_t + Lap and d_t - Lap.  Cells
    whose bracket main - boundary - negligible is nonpositive impose no
    constraint (any positive C0 passes there).  Returns (c0, lambda0,
    reports), one report per member and sign in ascending lambda; c0 is None
    when no cell constrains it.  Each row's pass flag asserts
    lhs >= c0 (main - boundary - negligible), and is True when c0 is None.
    lambda0 is the smallest swept lambda at which the reported c0 makes
    every member pass from there on; with a true infimum that is the
    smallest lambda in the sweep.  With ``restricted`` the boundary
    component reads only the outflow face x1 = b, and u must vanish (to
    1e-10) on every other lateral face; otherwise a ValueError is raised.
    ``members`` may be any iterable, a generator such as ``random_family``
    included: each member is checked and evaluated as it arrives and only
    its rows are kept, so one member is in memory at a time.  Every member
    must be a finite array of shape ``grid.shape``; a ValueError names the
    first that is not.  Before any member is drawn, the lambda grid is
    checked by ``lambda_grid``, and a boundary factor exp(lam b^2) out of
    double range raises RangeGuardError.
    """
    lambdas = lambda_grid(lambdas, distinct=1)
    lam, b = lambdas[-1], grid.prism.b
    if lam * b**2 > math.log(sys.float_info.max):
        raise RangeGuardError(
            f"lambda = {lam:g} with b = {b:g} takes the boundary factor "
            f"exp(lambda b^2) = exp({lam * b**2:g}) out of floating-point range"
        )
    weights = [scaled_weight_values(lam, alpha, grid) for lam in lambdas]
    member_rows = []
    for i, u in enumerate(members):
        u = finite_array(f"member {i}", u, grid.shape)
        member_rows.append(
            _functional_rows(grid, u, lambdas, weights, alpha, restricted=restricted)
        )
    caps = []
    for sign_rows in member_rows:
        for rows in sign_rows:
            for row in rows:
                bracket = row["main"] - row["boundary"] - row["negligible"]
                if bracket > 0.0:
                    caps.append(row["lhs"] / bracket)
    c0 = min(caps) if caps else None
    terms = ("lhs", "main", "boundary", "negligible", "negligible_log")
    reports = [
        CarlemanReport(
            lambdas=tuple(r["lam"] for r in rows),
            **{name: tuple(r[name] for r in rows) for name in terms},
            passed=tuple(_passes(r, c0) if c0 is not None else True for r in rows),
            sign=sign,
            restricted=restricted,
        )
        for sign_rows in member_rows
        for sign, rows in zip(_SIGNS, sign_rows)
    ]
    return c0, lambdas[0], reports


def random_family(grid: Grid, count: int, seed: int) -> Iterator[np.ndarray]:
    """Seeded family of smooth products of low-order trig and polynomial
    factors, each an array of shape ``grid.shape``, yielded one member at a
    time: nothing of an earlier member is kept, so memory does not grow
    with ``count``.  Take ``list(...)`` to hold the whole family.

    Each member is a product over axes (and time) of
    c0 + c1 s + c2 sin(pi s) + c3 cos(pi s) with coefficients uniform in
    [-1, 1], where s is the normalized coordinate, and each spatial factor
    is multiplied by sin^2(pi s), which zeroes the lateral Dirichlet and
    Neumann data so the functional's boundary component cannot swamp the
    volume bracket.  Time is never flattened, keeping the end-time term
    alive.  Each factor is evaluated on its own axis, shaped to broadcast,
    and the factors are multiplied axis by axis with time last.
    """
    rng = np.random.default_rng(seed)
    bounds = [grid.prism.axis_bounds(axis) for axis in range(grid.dim)]
    coords = np.ix_(
        *((grid.axis_coords(axis) - lo) / (hi - lo) for axis, (lo, hi) in enumerate(bounds)),
        grid.times / grid.prism.T,
    )
    for _ in range(count):
        values = 1.0
        for axis, s in enumerate(coords):
            c = rng.uniform(-1.0, 1.0, 4)
            factor = c[0] + c[1] * s + c[2] * np.sin(np.pi * s) + c[3] * np.cos(np.pi * s)
            if axis < grid.dim:
                factor = factor * np.sin(np.pi * s) ** 2
            values = values * factor
        yield values


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one integral-lemma sweep for one test function.

    ``slope`` is the log-log slope against lambda of the causal ratio and of
    the raw time-integral ratio; it is None for the spatial lemma, whose
    ratio is flat to rounding, and for a degenerate test function.
    """

    which: str
    lambdas: tuple[float, ...]
    ratios: tuple[float, ...]
    c_bound: float
    spread: float | None
    slope: float | None
    passed: bool | None
    degenerate: bool


# The three lemmas in report order, and the kernel each kernel lemma is
# stated for.
_LEMMAS = ("spatial", "causal", "time-integral")
_KERNEL_LEMMAS = {"spatial": Kernel("separable"), "causal": Kernel("causal")}


def verify_lemma(
    grid: Grid,
    samples: Iterable[np.ndarray],
    *,
    alpha: float,
    lambdas: Sequence[float],
) -> list[LemmaReport]:
    """Numerical check of the three weighted integral lemmas on each
    space-time array h of ``samples``, sampled on ``grid``: one report per
    lemma and sample, lemma by lemma ("spatial", "causal", "time-integral"),
    each lemma's in sample order.

    "spatial" and "causal" bound the weighted energy of the kernel integral
    of h, with the unit separable and causal kernel respectively, by the
    weighted energy of h; the check reports ratio(lam), its largest value
    ``c_bound`` (the empirical constant) and its max/min ``spread``.
    "spatial" passes when the ratio is flat (spread <= _RATIO_CAP = 10); it
    is flat to rounding, so no ``slope`` is reported.  "causal" also reports
    the log-log ``slope`` of the ratio against lambda, and passes when
    c_bound <= _RATIO_CAP and the ratio does not increase with lambda; it
    decays like 1/lam^2, and its slope stays out of the verdict.
    "time-integral" bounds the energy of the running time integral from T/2
    by (1/lam) times the energy of h; the check reports the lam-normalized
    ratio and asserts the log-log slope of the raw ratio against lambda
    lies in _SLOPE_WINDOW = [-1.15, -0.85].

    Every verdict reads a trend in lambda, so the grid needs at least two
    distinct values.  An identically-zero h is degenerate: ratios are zero
    and no assertion is made (passed is None).  ``samples`` may be any
    iterable, a generator such as ``random_family`` included: each sample
    is checked and reduced to its reports as it arrives, so one sample is
    in memory at a time.  Every sample must be a finite array of shape
    ``grid.shape``; a ValueError names the first that is not.  Each term
    is computed once.  Per call, before any sample is drawn: the check of
    the lambda grid and each lambda's weight.  Per sample: the cross-section
    sum of h^2, and that of each lemma's squared target, one target alive
    at a time.  Per sample and lambda: the (x1, t) sum of the h energy, the
    denominator of all three ratios; only the numerator's (x1, t) sum is
    taken per lemma.
    """
    lambdas = lambda_grid(lambdas, distinct=2)
    weights = [scaled_weight_values(lam, alpha, grid) for lam in lambdas]
    reports: list[list[LemmaReport]] = [[] for _ in _LEMMAS]
    for i, h in enumerate(samples):
        h = finite_array(f"sample {i}", h, grid.shape)
        target_sqs = []
        for which in _LEMMAS:
            if which in _KERNEL_LEMMAS:
                target = apply_kernel(_KERNEL_LEMMAS[which], grid, h)
            else:
                target = time_integral_from_t0(grid, h)
            target *= target  # a fresh array, squared in place
            target_sqs.append(cross_section_sum(grid, target))
            del target
        h_sq = cross_section_sum(grid, h * h)
        raws: list[list[float]] = [[] for _ in _LEMMAS]
        degenerate = False
        for phi_s in weights:
            den = _weighted_x1t(grid, h_sq, phi_s)
            degenerate |= den <= 0.0
            for raw, target_sq in zip(raws, target_sqs):
                ratio = 0.0 if den <= 0.0 else _weighted_x1t(grid, target_sq, phi_s) / den
                raw.append(float(ratio))
        for lemma_reports, which, raw in zip(reports, _LEMMAS, raws):
            lemma_reports.append(_lemma_report(which, lambdas, raw, degenerate))
    return [rep for lemma_reports in reports for rep in lemma_reports]


def _lemma_report(
    which: str, lambdas: list[float], raw: list[float], degenerate: bool
) -> LemmaReport:
    """The report of one lemma from its raw ratios, with the verdict that
    ``verify_lemma`` states."""
    if which == "time-integral":
        ratios = tuple(r * lam for r, lam in zip(raw, lambdas))
        c_bound = max(ratios)
        if degenerate or any(r <= 0.0 for r in raw):
            return LemmaReport(which, tuple(lambdas), ratios, c_bound, None, None, None, True)
        slope = _loglog_slope(lambdas, raw)
        passed = _SLOPE_WINDOW[0] <= slope <= _SLOPE_WINDOW[1]
        return LemmaReport(which, tuple(lambdas), ratios, c_bound, None, slope, passed, False)

    ratios = tuple(raw)
    c_bound = max(ratios)
    if degenerate or min(ratios) <= 0.0:
        return LemmaReport(which, tuple(lambdas), ratios, c_bound, None, None, None, True)
    spread = max(ratios) / min(ratios)
    if which == "causal":
        monotone = all(b <= a for a, b in zip(ratios, ratios[1:]))
        passed = c_bound <= _RATIO_CAP and monotone
        slope = _loglog_slope(lambdas, ratios)
    else:
        passed = spread <= _RATIO_CAP
        slope = None
    return LemmaReport(which, tuple(lambdas), ratios, c_bound, spread, slope, passed, False)


def _loglog_slope(lambdas: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against log(lambdas)."""
    return float(np.polyfit(np.log(np.asarray(lambdas)), np.log(np.asarray(values)), 1)[0])
