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

The derived equations are implemented in the algebraically closed form this
module re-derives from the base system (substituting the reconstruction and
the time-reconstruction of u~ into the differentiated equations), which is
the form whose residual genuinely vanishes on solution pairs.  One call,
``derived_residuals``, evaluates all six derived equations, computing each
term the equations share once.
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


def reconstruct_k_tilde(pack: DifferencePack, p: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Coefficient difference from the central-time identity,
    k~ = 2 P v(., T/2) + F, with P and F from ``compute_F``.

    Replacing v(., T/2) by v(., t) - int_{T/2}^t w dtau gives the shifted
    form at time t; at t = T/2 the integral vanishes and the two agree, and
    ``reconstruction_spread`` measures how far the shifted forms at other
    times move.
    """
    g = pack.grid
    return 2.0 * p * pack.v[..., g.index_t0] + F


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
    iw = time_integral_from_t0(g, pack.w)
    fields = []
    for t in times:
        j = g.index_of_time(t)
        fields.append(2.0 * p * (pack.v[..., j] - iw[..., j]) + F)
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

    All spatial operators are central nodal stencils; integral terms use
    the kernel quadrature and the cumulative central-time integral.  Norms
    exclude the spatial boundary ring and two time levels at each end
    (three for "density-dtt"), where one-sided stencils of second
    derivatives live.  With ``eps`` given, the norms are restricted to the
    eps-trimmed time window: the forward solvers carry small layers near
    t = 0 and t = T (initial and terminal compatibility is only approximate
    for a perturbed coefficient), and twice t-differentiating amplifies
    them; the trimmed window is also where all downstream norms of the
    estimate live.  Each term is computed once for all the equations that
    read it.
    """
    g = pack.grid
    kb = t2.k[..., None]
    u_tilde, m_tilde = pack.u_tilde, pack.m_tilde
    v, q, w, r = pack.v, pack.q, pack.w, pack.r
    m1, m2 = t1.m, t2.m
    grads_ut = gradient(g, u_tilde)
    grads_u1 = gradient(g, t1.u)
    grads_u2 = gradient(g, t2.u)
    grads_v = gradient(g, v)
    grads_w = gradient(g, w)
    out = {}

    cross = np.zeros(g.shape)
    grad1_sq = np.zeros(g.shape)
    for du, d1, d2 in zip(grads_ut, grads_u1, grads_u2):
        cross += du * (d1 + d2)
        grad1_sq += d1 * d1
    res = (
        v
        + laplacian(g, u_tilde)
        + apply_kernel(kernel, g, m_tilde)
        + f * m_tilde
        - 0.5 * kb * cross
        - 0.5 * pack.k_tilde[..., None] * grad1_sq
    )
    out["value-diff"] = masked_norms(g, res, 2, eps)

    div1 = divergence(g, [kb * m_tilde * d1 for d1 in grads_u1])
    div2 = divergence(g, [kb * m2 * du for du in grads_ut])
    div3 = divergence(g, [pack.k_tilde[..., None] * m1 * d1 for d1 in grads_u1])
    res = q - laplacian(g, m_tilde) - div1 - div2 - div3
    out["density-diff"] = masked_norms(g, res, 2, eps)

    # the four substituted equations share this preparation
    u01 = t1.u[..., g.index_t0]
    u02 = t2.u[..., g.index_t0]
    p, F = compute_F(pack, u01, u02, t2.k, kernel, f)
    pb, fb = p[..., None], F[..., None]
    ft = dt(g, f)
    ftt = dtt(g, f)
    s_comps = [d1 + d2 for d1, d2 in zip(grads_u1, grads_u2)]
    s_t = [dt(g, s) for s in s_comps]
    s_tt = [dt(g, st) for st in s_t]
    grads_u1t = [dt(g, d1) for d1 in grads_u1]
    grads_u1tt = [dt(g, d) for d in grads_u1t]
    iq = time_integral_from_t0(g, q)
    iv_grad = [time_integral_from_t0(g, comp) for comp in grads_v]
    v_shift = v - time_integral_from_t0(g, w)
    grads_u0t = gradient(g, pack.u0_tilde)
    m0b = pack.m0_tilde[..., None]
    m2t = dt(g, m2)
    m2tt = dtt(g, m2)
    flux1_t = [dt(g, m1 * d1) for d1 in grads_u1]
    flux1_tt = [dt(g, fx) for fx in flux1_t]

    d1_mix = np.zeros(g.shape)
    for a, b in zip(grads_u1, grads_u1t):
        d1_mix += a * b
    dot_v_s = sum(gv * s for gv, s in zip(grads_v, s_comps))
    dot_iv_st = sum(ivc * st for ivc, st in zip(iv_grad, s_t))
    dot_u0_st = sum(d0[..., None] * st for d0, st in zip(grads_u0t, s_t))
    res = (
        dt(g, v)
        + laplacian(g, v)
        + apply_kernel(kernel, g, q)
        + f * q
        + ft * iq
        - 0.5 * kb * dot_v_s
        - 0.5 * kb * dot_iv_st
        - 2.0 * pb * d1_mix * v_shift
        - (fb * d1_mix - ft * m0b + 0.5 * kb * dot_u0_st)
    )
    out["value-dt"] = masked_norms(g, res, 2, eps)

    res = (
        dt(g, q)
        - laplacian(g, q)
        - divergence(g, [kb * q * d1 for d1 in grads_u1])
        - divergence(g, [kb * iq * d1t for d1t in grads_u1t])
        - divergence(g, [kb * m2 * gv for gv in grads_v])
        - divergence(g, [kb * m2t * ivc for ivc in iv_grad])
        - divergence(g, [2.0 * pb * v_shift * fx for fx in flux1_t])
        - divergence(g, [fb * fx for fx in flux1_t])
        - divergence(g, [kb * m0b * d1t for d1t in grads_u1t])
        - divergence(g, [kb * m2t * d0[..., None] for d0 in grads_u0t])
    )
    out["density-dt"] = masked_norms(g, res, 2, eps)

    d2_mix = np.zeros(g.shape)
    for a, b, bt in zip(grads_u1, grads_u1tt, grads_u1t):
        d2_mix += bt * bt + a * b
    dot_w_s = sum(gw * s for gw, s in zip(grads_w, s_comps))
    dot_v_st = sum(gv * st for gv, st in zip(grads_v, s_t))
    dot_iv_stt = sum(ivc * stt for ivc, stt in zip(iv_grad, s_tt))
    dot_u0_stt = sum(d0[..., None] * stt for d0, stt in zip(grads_u0t, s_tt))
    res = (
        dt(g, w)
        + laplacian(g, w)
        + apply_kernel(kernel, g, r)
        + 2.0 * ft * q
        + f * r
        + ftt * iq
        - 0.5 * kb * dot_w_s
        - kb * dot_v_st
        - 0.5 * kb * dot_iv_stt
        - 2.0 * pb * d2_mix * v_shift
        - (fb * d2_mix - ftt * m0b + 0.5 * kb * dot_u0_stt)
    )
    out["value-dtt"] = masked_norms(g, res, 2, eps)

    res = (
        dt(g, r)
        - laplacian(g, r)
        - divergence(g, [kb * r * d1 for d1 in grads_u1])
        - 2.0 * divergence(g, [kb * q * d1t for d1t in grads_u1t])
        - divergence(g, [kb * iq * d1tt for d1tt in grads_u1tt])
        - divergence(g, [kb * m2 * gw for gw in grads_w])
        - 2.0 * divergence(g, [kb * m2t * gv for gv in grads_v])
        - divergence(g, [kb * m2tt * ivc for ivc in iv_grad])
        - divergence(g, [2.0 * pb * v_shift * fx for fx in flux1_tt])
        - divergence(g, [fb * fx for fx in flux1_tt])
        - divergence(g, [kb * m0b * d1tt for d1tt in grads_u1tt])
        - divergence(g, [kb * m2tt * d0[..., None] for d0 in grads_u0t])
    )
    out["density-dtt"] = masked_norms(g, res, 3, eps)
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
