"""Difference machinery behind the Hoelder stability estimate.

Given two solution triples sharing the interaction data (kernel and f), the
analysis studies the differences (u~, m~, k~) and their first and second
time derivatives v, q, w, r.  Evaluating the differenced value equation at
the central time and using the non-degeneracy of grad u_1 there yields a
pointwise reconstruction of k~ from v and snapshot data; substituting that
reconstruction back into the time-differentiated systems produces coupled
integro-differential equations in (v, q, w, r) alone, whose residuals this
module evaluates discretely.  A genuine solution pair drives every residual
to zero at the discretization rate; that is the checkable content of the
derivation, with no existence-only constants involved.

The parameter calculus maps (rho, epsilon) to the weight steepness alpha,
the exponent bookkeeping constants beta and d, and the noise threshold
delta_0, all in exact rational arithmetic so the algebraic identities
behind the final estimate can be asserted to machine precision.

The six derived equations are one system written once: the differenced
value and density equations and their first and second time derivatives,
each expanded by Leibniz' rule over lists of time-derivative levels
(sum_j C(s, j) a^(s-j) b^(j) for a product a b).  For s >= 1 the zeroth
level is not the difference itself but its central-time reconstruction,
m~ = m0~ + int q, grad u~ = grad u0~ + int grad v and k~ from v, w and
snapshot data, which is the closed form whose residual genuinely vanishes
on solution pairs.  One call, ``derived_residuals``, evaluates all six.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .grid import (
    Grid,
    dt,
    dtt,
    divergence,
    grad_sq,
    gradient,
    laplacian,
    time_integral_from_t0,
)
from .kernels import Kernel, apply_kernel
from .mfg import MFGTriple, PicardNonConvergence, ProblemSpec, solve_mfg_members
from .cip import extract, measure_delta
from .norms import masked_norms, norm

__all__ = [
    "NondegeneracyError",
    "DifferencePack",
    "StabilityParams",
    "SweepReport",
    "form_difference",
    "compute_F",
    "reconstruct_k_tilde",
    "reconstruction_spread",
    "derived_residuals",
    "select_parameters",
    "holder_sweep",
    "assemble_final_estimate",
    "SWEEP_ERRORS",
]

# the per-pair measures of a sweep row, in sweep.csv's order: column ->
# (DifferencePack field, norm kind), a space-time field on the eps window
SWEEP_ERRORS = {
    "err_k": ("k_tilde", "L2"),
    "err_u_s0": ("u_tilde", "H21"), "err_u_s1": ("v", "H21"), "err_u_s2": ("w", "H21"),
    "err_m_s0": ("m_tilde", "H21"), "err_m_s1": ("q", "H21"), "err_m_s2": ("r", "H21"),
}

# flatness guard of the reconstruction: |grad u_1(., T/2)|^2 must stay above 2c
_FLATNESS_C = 1e-8


class NondegeneracyError(ValueError):
    """The central-time gradient of the reference value function is too flat."""


# ---------------------------------------------------------------------------
# difference pack


@dataclass(frozen=True)
class DifferencePack:
    """Differences of two solution triples on ``grid`` and their time
    derivatives, as arrays of shape ``grid.shape``.

    v, q are first and w, r second discrete time derivatives of u~ and m~;
    u0~, m0~ are the central-time snapshots of the differences.
    """

    grid: Grid
    u_tilde: np.ndarray
    m_tilde: np.ndarray
    k_tilde: np.ndarray
    v: np.ndarray
    q: np.ndarray
    w: np.ndarray
    r: np.ndarray
    u0_tilde: np.ndarray
    m0_tilde: np.ndarray

    def v_norm_sq(self, kind: str, eps: float | None = None) -> float:
        """Sum of squared component norms of the stacked (v, q, w, r)."""
        total = 0.0
        for comp in (self.v, self.q, self.w, self.r):
            total += norm(self.grid, comp, kind, eps=eps) ** 2
        return total


def form_difference(t1: MFGTriple, t2: MFGTriple) -> DifferencePack:
    """Difference pack of two triples (caller guarantees shared kernel and f).

    Computes no norm; ``DifferencePack.v_norm_sq`` measures the stacked
    derivative vector on demand.
    """
    if t1.grid != t2.grid:
        raise ValueError("triples live on different grids")
    g = t1.grid
    u_tilde = t1.u - t2.u
    m_tilde = t1.m - t2.m
    return DifferencePack(
        grid=g,
        u_tilde=u_tilde,
        m_tilde=m_tilde,
        k_tilde=t1.k - t2.k,
        v=dt(g, u_tilde),
        q=dt(g, m_tilde),
        w=dtt(g, u_tilde),
        r=dtt(g, m_tilde),
        u0_tilde=u_tilde[..., g.index_t0].copy(),
        m0_tilde=m_tilde[..., g.index_t0].copy(),
    )


# ---------------------------------------------------------------------------
# reconstruction of the coefficient difference


def compute_F(
    pack: DifferencePack,
    u01: np.ndarray,
    u02: np.ndarray,
    k2: np.ndarray,
    kernel: Kernel,
    f: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """P = |grad u01|^{-2} and the snapshot part of the coefficient
    reconstruction,

    F = 2 P [Lap u0~ + (K m0~) + f(., T/2) m0~] - P k2 grad u0~ . grad(u01 + u02),

    with f taken at the central time, where the equation is evaluated.  The
    reconstruction reads P too, so it is returned rather than recomputed.
    NondegeneracyError if |grad u01|^2 dips below 2c.
    """
    g = pack.grid
    total = grad_sq(g, u01)
    worst = float(np.min(total))
    if worst < 2.0 * _FLATNESS_C:
        j = np.unravel_index(np.argmin(total), total.shape)
        raise NondegeneracyError(
            f"|grad u_1|^2 at the central time dips to {worst:.3e} < 2c = "
            f"{2.0 * _FLATNESS_C:.3e} at index {tuple(int(i) for i in j)}"
        )
    p = 1.0 / total
    km0 = apply_kernel(kernel, g, pack.m0_tilde)
    f_slice = f[..., g.index_t0]
    lap0 = laplacian(g, pack.u0_tilde)
    cross = np.zeros(g.shape_space)
    for d0, ds in zip(gradient(g, pack.u0_tilde), gradient(g, u01 + u02)):
        cross += d0 * ds
    return p, 2.0 * p * (lap0 + km0 + f_slice * pack.m0_tilde) - p * k2 * cross


def _shifted_k_tilde(pack: DifferencePack, p: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Space-time array of the shifted reconstructions
    2 P (v(., t) - int_{T/2}^t w dtau) + F, with P and F from
    ``compute_F``."""
    return 2.0 * p[..., None] * (pack.v - time_integral_from_t0(pack.grid, pack.w)) + F[..., None]


def reconstruct_k_tilde(pack: DifferencePack, p: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Coefficient difference from the central-time identity,
    k~ = 2 P v(., T/2) + F, with P and F from ``compute_F``.

    Replacing v(., T/2) by v(., t) - int_{T/2}^t w dtau gives the shifted
    form at time t; at t = T/2 the integral is exactly 0, so k~ is the t0
    level of the shifted forms, and ``reconstruction_spread`` measures how
    far they move at other times.
    """
    return _shifted_k_tilde(pack, p, F)[..., pack.grid.index_t0]


def reconstruction_spread(
    pack: DifferencePack,
    p: np.ndarray,
    F: np.ndarray,
    times: Sequence[float],
) -> float:
    """Largest pairwise L2 distance between the shifted reconstructions
    2 P (v(., t) - int_{T/2}^t w dtau) + F at each of ``times``, with P and
    F from ``compute_F``."""
    g = pack.grid
    shifted = _shifted_k_tilde(pack, p, F)
    fields = [shifted[..., g.index_of_time(t)] for t in times]
    worst = 0.0
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            worst = max(worst, norm(g, fields[i] - fields[j], "L2"))
    return worst


# ---------------------------------------------------------------------------
# derived-system residuals


def derived_residuals(
    pack: DifferencePack,
    t1: MFGTriple,
    t2: MFGTriple,
    kernel: Kernel,
    f: np.ndarray,
    *,
    eps: float | None,
) -> dict[str, tuple[float, float]]:
    """Discrete residual norms (L2, max) of the six derived equations, by name.

    With U = (u~, v, w), M = (m~, q, r), S = grad u_1 + grad u_2 and ^(j)
    the j-th time derivative, Leibniz' rule, with binomials C(s, j), gives
    the s-th time derivative (s = 0, 1, 2) of the differenced system as

        value:   dt U_s + Lap U_s + K M_s + sum_j C(s,j) [f^(s-j) M_j
                 - k_2/2 grad U_j . S^(s-j) - k~/2 grad u_1^(j) . grad u_1^(s-j)]
        density: dt M_s - Lap M_s - div(k_2 sum_j C(s,j) [M_j grad u_1^(s-j)
                 + m_2^(s-j) grad U_j] + k~ (m_1 grad u_1)^(s))

    named "value-diff", "density-diff", "value-dt", ... in that order.  The
    j = 0 level is the true difference for s = 0 and, for s >= 1, the
    central-time reconstruction M_0 = m0~ + int q, grad U_0 = grad u0~ +
    int grad v and k~ = 2 P (v - int w) + F (``compute_F``), so those four
    equations close in (v, q, w, r) and snapshot data.  f'' and m_2'' are
    second differences; S'', grad u_1'' and (m_1 grad u_1)'' apply the
    first difference twice.  Norms skip the spatial boundary ring and two
    time levels at each end (three for "density-dtt"), where one-sided
    second-derivative stencils live; with ``eps`` given they keep to the
    eps-trimmed window, which drops the solvers' layers near t = 0 and
    t = T that t-differentiating amplifies.
    """
    g = pack.grid
    kb = t2.k[..., None]

    def levels(comps):
        first = [dt(g, c) for c in comps]
        return [comps, first, [dt(g, c) for c in first]]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    du1 = levels(gradient(g, t1.u))
    dsum = levels([d1 + d2 for d1, d2 in zip(du1[0], gradient(g, t2.u))])
    flux1 = levels([t1.m * d1 for d1 in du1[0]])
    fs = [f, dt(g, f), dtt(g, f)]
    m2s = [t2.m, dt(g, t2.m), dtt(g, t2.m)]
    us = [pack.u_tilde, pack.v, pack.w]
    ms = [pack.m_tilde, pack.q, pack.r]
    dus = [gradient(g, u) for u in us]
    p, F = compute_F(pack, t1.u[..., g.index_t0], t2.u[..., g.index_t0], t2.k, kernel, f)
    du0 = [d0[..., None] + time_integral_from_t0(g, dv)
           for d0, dv in zip(gradient(g, pack.u0_tilde), dus[1])]
    rebuilt = (
        [pack.m0_tilde[..., None] + time_integral_from_t0(g, pack.q), *ms[1:]],
        [du0, *dus[1:]],
        _shifted_k_tilde(pack, p, F),
    )
    out = {}
    for s, name in enumerate(("diff", "dt", "dtt")):
        m_j, du_j, k_tilde = rebuilt if s else (ms, dus, pack.k_tilde[..., None])
        # (C(s, j), j, s - j) for each term of the Leibniz sums
        terms = [(math.comb(s, j), j, s - j) for j in range(s + 1)]
        res = (
            dt(g, us[s])
            + laplacian(g, us[s])
            + apply_kernel(kernel, g, ms[s])
            + sum(c * fs[i] * m_j[j] for c, j, i in terms)
            - 0.5 * kb * sum(c * dot(du_j[j], dsum[i]) for c, j, i in terms)
            - 0.5 * k_tilde * sum(c * dot(du1[j], du1[i]) for c, j, i in terms)
        )
        out[f"value-{name}"] = masked_norms(g, res, 2, eps)
        flux = [
            kb * sum(c * (m_j[j] * du1[i][k] + m2s[i] * du_j[j][k]) for c, j, i in terms)
            + k_tilde * flux1[s][k]
            for k in range(g.dim)
        ]
        res = dt(g, ms[s]) - laplacian(g, ms[s]) - divergence(g, flux)
        out[f"density-{name}"] = masked_norms(g, res, 3 if s == 2 else 2, eps)
    return out


# ---------------------------------------------------------------------------
# parameter calculus


@dataclass(frozen=True)
class StabilityParams:
    """Exact parameter bookkeeping for the final estimate.

    All derived quantities are Fractions computed from the inputs with no
    rounding, so identities like alpha eps (T - eps) - b^2 = beta b^2 hold
    exactly; float views are provided for numerics.
    """

    rho: Fraction
    epsilon: Fraction
    T: Fraction
    a: Fraction
    b: Fraction
    lam1: float
    s: Fraction
    beta: Fraction
    alpha: Fraction
    d: Fraction

    @property
    def delta0(self) -> float:
        return math.exp(-self.lam1 * float(self.d) / float(self.rho))

    def lam(self, delta: float) -> float:
        """Noise-matched weight steepness; decreasing in delta."""
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        return float(self.rho) / float(self.d) * math.log(1.0 / delta)


def epsilon_window(rho: Fraction | float, T: Fraction | float) -> tuple[float, float]:
    rho_f, t_f = float(rho), float(T)
    return (t_f / 2.0) * (1.0 - math.sqrt(rho_f)), t_f / 2.0


def select_parameters(
    rho: Fraction | float | str,
    epsilon: Fraction | float | str,
    prism,
    lam1: float,
) -> StabilityParams:
    """Map (rho, epsilon) to the weight and exponent constants, exactly.

    The epsilon window (T/2)(1 - sqrt(rho)) < epsilon < T/2 is checked by
    the equivalent rational comparison rho > (1 - 2 eps / T)^2, avoiding
    irrational arithmetic; beta is the smallest value closing the exponent
    comparison, attained with equality.
    """
    rho = Fraction(rho)
    epsilon = Fraction(epsilon)
    T = Fraction(prism.T)
    a = Fraction(prism.a)
    b = Fraction(prism.b)
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    lo, hi = epsilon_window(rho, T)
    half_gap = 1 - 2 * epsilon / T
    feasible = epsilon < T / 2 and (half_gap < 0 or rho > half_gap * half_gap)
    if not feasible:
        raise ValueError(
            f"epsilon = {float(epsilon):.6g} outside the admissible window "
            f"({lo:.6g}, {hi:.6g}) for rho = {float(rho):.6g}"
        )
    s = (T / 2 - epsilon) ** 2 / (epsilon * (T - epsilon))
    margin = rho - (1 - rho) * s
    beta = (1 - rho) * (Fraction(3, 2) + s) / margin
    alpha = (1 + beta) * b * b / (epsilon * (T - epsilon))
    d = (Fraction(3, 2) + (1 + beta) * s) * b * b
    # the weights and lam(delta) read both as floats
    for name, value in (("alpha", alpha), ("d", d)):
        if not (value <= sys.float_info.max and float(value) > 0.0):
            raise ValueError(
                f"{name} is out of floating-point range for b = {float(b):g}, "
                f"T = {float(T):g}, epsilon = {float(epsilon):g}"
            )
    return StabilityParams(
        rho=rho, epsilon=epsilon, T=T, a=a, b=b, lam1=float(lam1),
        s=s, beta=beta, alpha=alpha, d=d,
    )


# ---------------------------------------------------------------------------
# the end-to-end exponent sweep


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[dict, ...]
    excluded: tuple[dict, ...]
    slope: float
    intercept: float
    r_squared: float
    completeness: str

    def delta_decades(self) -> float:
        deltas = [row["delta"] for row in self.rows if row["delta"] > 0.0]
        if len(deltas) < 2:
            return 0.0
        return math.log10(max(deltas) / min(deltas))


def _sweep_errors(pack: DifferencePack, eps: float) -> dict[str, float]:
    """``SWEEP_ERRORS`` of one pair."""
    g = pack.grid
    out = {}
    for column, (field, kind) in SWEEP_ERRORS.items():
        values = getattr(pack, field)
        out[column] = norm(g, values, kind, eps=eps if values.shape == g.shape else None)
    return out


def holder_sweep(
    spec: ProblemSpec,
    k1: np.ndarray,
    perturbations: Sequence[tuple[float, np.ndarray]],
    *,
    eps: float,
    completeness: str,
    damping: float,
    max_iter: int,
    tol: float,
) -> SweepReport:
    """Measured data-to-solution exponent over a coefficient family.

    The family is ``perturbations``, ``(scale, delta_k)`` pairs: each
    ``k1 + delta_k`` is compared with ``k1``, and its row carries ``scale``.
    All coefficients share the forward machinery and the data, so data and
    solution differences carry the perturbation signal, not solver bias.
    They are solved as the members of ``solve_mfg_members``: in lockstep
    groups whose width a space-time node budget sets, each member
    converging on its own and bitwise as if solved alone.  Outcomes resolve
    in member order: the base's failure is raised, then for each pair in
    turn a non-converging solve becomes an ``excluded`` row and a blow-up is
    raised.  The fitted slope of log(max error) against log(delta) is the
    empirical exponent; the theory asserts it is at least 1 - rho for the
    rho that fixed ``eps``, with steeper (near-Lipschitz) behavior
    compliant.  The error norms live on the ``eps``-trimmed cylinder.
    """
    outcomes = solve_mfg_members(
        spec,
        [k1] + [k1 + delta_k for _, delta_k in perturbations],
        damping=damping,
        max_iter=max_iter,
        tol=tol,
    )
    base = next(outcomes)
    if isinstance(base, Exception):
        raise base
    d1 = extract(base, completeness)

    rows: list[dict] = []
    excluded: list[dict] = []
    for (scale, _), outcome in zip(perturbations, outcomes):
        if isinstance(outcome, PicardNonConvergence):
            excluded.append({"scale": scale, "reason": str(outcome)})
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            row = {"scale": scale, "delta": measure_delta(d1, extract(outcome, completeness))}
            row.update(_sweep_errors(form_difference(base, outcome), eps))
            rows.append(row)

    pts = [
        (math.log(row["delta"]), math.log(max(row[k] for k in SWEEP_ERRORS)))
        for row in rows
        if row["delta"] > 0.0 and max(row[k] for k in SWEEP_ERRORS) > 0.0
    ]
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope, intercept = np.polyfit(xs, ys, 1)
        fit = slope * xs + intercept
        ss_res = float(np.sum((ys - fit) ** 2))
        ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    else:
        slope, intercept, r2 = math.nan, math.nan, math.nan
    return SweepReport(
        rows=tuple(rows),
        excluded=tuple(excluded),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r2),
        completeness=completeness,
    )


# ---------------------------------------------------------------------------
# final estimate assembly


def assemble_final_estimate(
    pack: DifferencePack,
    params: StabilityParams,
    delta: float,
) -> dict:
    """Both sides of the two-term estimate at lambda = max(lam(delta), lam1).

    RHS terms are combined in log space with the estimate's constant set
    to 1: the first decays like exp(-2 lam beta b^2) times the
    full-cylinder norm, the second is delta^2 exp(2 lam d); at
    lam = lam(delta) the second equals delta^{2(1 - rho)} by construction.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    lhs = pack.v_norm_sq("H21", eps=float(params.epsilon))
    lam = max(params.lam(delta), params.lam1) if delta < 1.0 else params.lam1
    b2 = float(params.b) ** 2
    log_term1 = (
        -2.0 * lam * float(params.beta) * b2
        + math.log(max(pack.v_norm_sq("H2"), 1e-300))
    )
    log_term2 = 2.0 * math.log(delta) + 2.0 * lam * float(params.d)
    log_rhs = np.logaddexp(log_term1, log_term2)
    log_lhs = math.log(lhs) if lhs > 0.0 else -math.inf
    return {
        "lambda": lam,
        "lhs_sq": lhs,
        "log_lhs_sq": log_lhs,
        "log_rhs_sq": float(log_rhs),
        "log_term_decay": log_term1,
        "log_term_noise": log_term2,
        "holds": log_lhs <= float(log_rhs),
        "margin_log": float(log_rhs) - log_lhs,
    }
