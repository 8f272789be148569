"""Forward machinery for the coupled value/density system.

The system on the cylinder is

    u_t + Lap u - k (grad u)^2 / 2 + (K m) + f m = 0     (backward in time)
    m_t - Lap m - div(k m grad u) = 0                    (forward in time)

with Dirichlet data on the lateral boundary, a terminal condition for u and
an initial condition for m.  Neither equation is discretized in the source
material; the lab adopts the simplest scheme whose failure modes are
observable: backward-Euler marching in the stable direction for each
equation, the quadratic gradient term lagged one level to linearize the
value equation, and a damped alternating fixed point for the coupling.
Stepping is implicit because the downstream analysis differentiates
solutions twice in time, which amplifies any conditional instability.  The
marching matrix is laid out once per grid: the value equation's matrix does
not change in time and is factored once per solve, and each density step
rewrites only its drift entries.  In 1-D the factorization is LAPACK's
tridiagonal ``dgttrf`` and each step one bare ``dgttrs`` call.  The density
march computes the face drift of a block of levels from u in one array
operation and scans its levels for blow-up once, after the march.

The Fokker-Planck divergence uses conservative face-centered fluxes
(arithmetic means of k, m and the first difference of u on the face), and
the residual evaluator applies the identical flux so that solver and
residual disagree only through the time discretization.

``manufacture_triple`` builds exact solution triples: u is prescribed in
closed form (with hand-written derivatives), m is solved forward, and f is
defined pointwise from the value equation.  Because f absorbs the discrete
kernel term and the discrete m exactly, the value-equation residual of the
manufactured triple is pure finite-difference truncation of the closed form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu

from .grid import (
    Field,
    Grid,
    boundary_mask,
    dt as field_dt,
    grad_sq,
    interior_mask,
    laplacian,
    sample_field,
)
from .kernels import Kernel, apply_kernel
from .norms import norm

log = logging.getLogger(__name__)

__all__ = [
    "BlowupError",
    "PicardNonConvergence",
    "ProblemSpec",
    "MFGTriple",
    "ClosedForm",
    "quadratic_form",
    "bump_form",
    "steady_density",
    "solve_fokker_planck",
    "solve_hjb",
    "solve_mfg_picard",
    "manufacture_triple",
    "spec_for_triple",
    "residual",
    "M_FLOOR",
    "BLOWUP_THRESHOLD",
]

M_FLOOR = 1e-6
BLOWUP_THRESHOLD = 1e12


class BlowupError(RuntimeError):
    """A marching solve left the representable range (instability)."""

    def __init__(self, equation: str, t_index: int, worst: float):
        self.equation = equation
        self.t_index = t_index
        self.worst = worst
        super().__init__(
            f"{equation} solve blew up at time level {t_index}: max |value| = {worst:.3e}"
        )


class PicardNonConvergence(RuntimeError):
    """The alternating fixed point failed to settle within max_iter."""

    def __init__(self, history: list[float], max_iter: int, tol: float):
        self.history = list(history)
        self.max_iter = max_iter
        self.tol = tol
        tail = ", ".join(f"{r:.3e}" for r in history[-3:])
        super().__init__(
            f"no convergence after {max_iter} iterations (tol {tol:.1e}); "
            f"last changes: {tail}"
        )


# ---------------------------------------------------------------------------
# problem data


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one forward problem: geometry, coupling, and Dirichlet data.

    ``f`` is the local-interaction coefficient field.  ``u_data`` supplies u
    on the lateral boundary at every level and its terminal level;
    ``m_data`` supplies m on the lateral boundary and its initial level.
    The solvers read no other entry of either field.
    """

    grid: Grid
    kernel: Kernel
    f: Field
    u_data: Field
    m_data: Field

    def __post_init__(self) -> None:
        for name in ("f", "u_data", "m_data"):
            if getattr(self, name).grid != self.grid:
                raise ValueError(f"{name} lives on a different grid")
        m_min = np.min(self.m_data.values[..., 0])
        if m_min <= 0.0:
            raise ValueError(f"initial density must be positive, min = {m_min:.3e}")


@dataclass(frozen=True)
class MFGTriple:
    """A solution pair (u, m) together with the coefficient k that made it."""

    u: Field
    m: Field
    k: np.ndarray
    report: dict = dataclass_field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        g = self.u.grid
        if self.m.grid != g:
            raise ValueError("u and m live on different grids")
        k = np.asarray(self.k, dtype=float)
        if k.shape != g.shape_space:
            raise ValueError(f"k must have spatial shape {g.shape_space}")
        if not np.all(np.isfinite(k)):
            raise ValueError("k must be finite")
        object.__setattr__(self, "k", k)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def nondegeneracy_constant(self) -> float:
        """min over the prism of |grad u(., T/2)|^2 / 2 (sampled)."""
        g = self.grid
        total = grad_sq(g, self.u.values[..., g.index_t0])
        return float(np.min(total) / 2.0)


# ---------------------------------------------------------------------------
# closed forms for manufactured solutions


@dataclass(frozen=True)
class ClosedForm:
    """A function of (x_1, ..., x_n, t) with hand-written exact derivatives.

    The exactness matters: manufactured coefficients are built from these
    callables rather than from finite differences, so the residuals of the
    manufactured triple measure pure discretization error.
    """

    fn: Callable
    d_t: Callable
    grad: tuple[Callable, ...]
    lap: Callable


def quadratic_form(dim: int) -> ClosedForm:
    """u = x_1^2 + t; gradient bounded away from zero for a > 0."""
    return ClosedForm(
        fn=lambda *c: c[0] ** 2 + c[-1],
        d_t=lambda *c: np.ones(np.broadcast(*c).shape),
        grad=tuple(
            (lambda *c: 2.0 * c[0])
            if axis == 0
            else (lambda *c: np.zeros(np.broadcast(*c).shape))
            for axis in range(dim)
        ),
        lap=lambda *c: 2.0 * np.ones(np.broadcast(*c).shape),
    )


def bump_form(prism, amplitude: float = 0.3) -> ClosedForm:
    """u = x_1^2 + amplitude sin(pi s) p(t), s the normalized first coordinate
    and p(t) = (4 t (T - t) / T^2)^2.

    Smooth and non-degenerate (the x_1^2 part dominates for small
    amplitudes), with genuine interior time dependence.  The time profile
    and its first derivative vanish at both ends, so a density started in
    the steady state of the t = 0 drift keeps two orders of corner
    compatibility with frozen boundary data; without that the corner layer
    ruins the observable convergence order of the density residual.
    """
    a, b, T = prism.a, prism.b, prism.T
    w = math.pi / (b - a)
    c4 = 16.0 / T**4

    def s(c):
        return w * (c[0] - a)

    def p(t):
        return c4 * (t * (T - t)) ** 2

    def p_t(t):
        return c4 * 2.0 * t * (T - t) * (T - 2.0 * t)

    return ClosedForm(
        fn=lambda *c: c[0] ** 2 + amplitude * np.sin(s(c)) * p(c[-1]),
        d_t=lambda *c: amplitude * np.sin(s(c)) * p_t(c[-1]),
        grad=tuple(
            (lambda *c: 2.0 * c[0] + amplitude * w * np.cos(s(c)) * p(c[-1]))
            if axis == 0
            else (lambda *c: np.zeros(np.broadcast(*c).shape))
            for axis in range(prism.dim)
        ),
        lap=lambda *c: 2.0 - amplitude * w * w * np.sin(s(c)) * p(c[-1]),
    )


def steady_density(grid: Grid) -> np.ndarray:
    """exp(1 - x_1^2): zero-flux steady density for k = 1 and drift 2 x_1.

    The flux m_x1 + k m (2 x_1) vanishes identically, so freezing this
    profile on the boundary gives corner-compatible data for any u whose
    t = 0 gradient is (2 x_1, 0, ...).
    """
    x = grid.space_meshgrid()[0]
    return np.exp(1.0 - x * x)


# ---------------------------------------------------------------------------
# the marching system


def _strides(nx: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    acc = 1
    for m in reversed(nx):
        out.append(acc)
        acc *= m
    return tuple(reversed(out))


def _lo_hi(ndim: int, axis: int, rest: slice = slice(None)) -> tuple[tuple, tuple]:
    """Index tuples taking entries 0..n-2 (lo) and 1..n-1 (hi) along ``axis``
    and ``rest`` along every other axis."""
    lo = [rest] * ndim
    hi = [rest] * ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


class _SpatialOperator:
    """The marching system I - tau (L + D) of one grid, laid out once.

    L is the interior Laplacian stencil and D the conservative drift
    operator m -> div(a m) with face-centered fluxes; boundary rows are
    identity rows that carry the Dirichlet data.  The matrix lives in one
    flat array with a fixed layout: the three bands of a tridiagonal matrix
    in 1-D, the ``data`` array of a CSC matrix with fixed sparsity in n-D.
    The slot arrays map each stencil entry of an interior row (diagonal,
    and per axis the lower and upper neighbour) to its position there, so a
    new drift rewrites values only.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        ns = self.ns = int(np.prod(grid.nx))
        on_boundary = boundary_mask(grid).ravel()
        self.boundary = np.flatnonzero(on_boundary)
        self.interior = np.flatnonzero(~on_boundary)
        if grid.dim == 1:
            # band rows: [0, j] = A[j-1, j], [1, j] = A[j, j], [2, j] = A[j+1, j]
            i = self.interior
            self.diag_slots = ns + i
            self.lower_slots = [2 * ns + i - 1]
            self.upper_slots = [i + 1]
            self._identity = np.zeros(3 * ns)
            self._identity[ns + self.boundary] = 1.0
            return
        # entries in the order diagonal, then (lower, upper) per axis
        ni = self.interior.size
        neighbours = [
            self.interior + sign * stride
            for stride in _strides(grid.nx)
            for sign in (-1, 1)
        ]
        rows = np.concatenate([np.arange(ns)] + [self.interior] * len(neighbours))
        cols = np.concatenate([np.arange(ns)] + neighbours)
        order = np.lexsort((rows, cols))
        self.indices = rows[order].astype(np.intc)
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ns))))
        self.indptr = self.indptr.astype(np.intc)
        slots = np.empty_like(order)
        slots[order] = np.arange(order.size)
        self.diag_slots = slots[self.interior]
        off = slots[ns:].reshape(grid.dim, 2, ni)
        self.lower_slots = list(off[:, 0])
        self.upper_slots = list(off[:, 1])
        self._identity = np.zeros(order.size)
        self._identity[slots[self.boundary]] = 1.0

    def couplings(
        self, tau: float, a_faces: Sequence[np.ndarray] | None
    ) -> tuple[np.ndarray | float, list, list]:
        """Diagonal and per-axis lower and upper entries of I - tau (L + D)
        on the interior rows, in flat node order; ``a_faces=None`` drops D.

        Every entry sums its Laplacian terms first, then its drift terms,
        axis by axis.  In one and two dimensions that is the order in which
        assembling the stencils as duplicate sparse entries summed them, so
        solutions match that assembly bit for bit; keep the order.
        """
        g = self.grid
        diag: np.ndarray | float = 1.0
        lower, upper = [], []
        for h in g.h:
            inv_h2 = 1.0 / h**2
            diag = diag - (-2.0 * inv_h2) * tau
            lower.append(-(inv_h2 * tau))
            upper.append(-(inv_h2 * tau))
        if a_faces is None:
            return diag, lower, upper
        for axis, (h, a) in enumerate(zip(g.h, a_faces)):
            # a on the faces i - 1/2 (minus) and i + 1/2 (plus) of interior nodes
            lo, hi = _lo_hi(g.dim, axis, slice(1, -1))
            minus = a[lo].ravel()
            plus = a[hi].ravel()
            diag = diag - (plus - minus) / (2.0 * h) * tau
            upper[axis] = upper[axis] - plus / (2.0 * h) * tau
            lower[axis] = lower[axis] + minus / (2.0 * h) * tau
        return diag, lower, upper

    def system(
        self,
        tau: float,
        a_faces: Sequence[np.ndarray] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Flat storage of I - tau (L + D), written into ``out`` if given."""
        if out is None:
            out = self._identity.copy()
        diag, lower, upper = self.couplings(tau, a_faces)
        out[self.diag_slots] = diag
        for slots, vals in zip(self.lower_slots + self.upper_slots, lower + upper):
            out[slots] = vals
        return out

    def factor(self, storage: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Solver for the system held in ``storage``, factored once here:
        LAPACK ``dgttrf`` on the three bands in 1-D, whose solve is a bare
        ``dgttrs`` call, and sparse LU in higher dimensions.  A singular
        tridiagonal matrix raises ``np.linalg.LinAlgError``."""
        if self.grid.dim == 1:
            ab = storage.reshape(3, self.ns)
            dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
            if info != 0:
                raise np.linalg.LinAlgError("singular matrix")
            return lambda b: dgttrs(dl, d, du, du2, ipiv, b)[0]
        A = sp.csc_matrix((storage, self.indices, self.indptr), shape=(self.ns, self.ns))
        return splu(A).solve

    def dirichlet_values(self, data: Field) -> np.ndarray:
        """Dirichlet values of every time level, shape (nt, boundary nodes)."""
        return data.values.reshape(self.ns, self.grid.nt)[self.boundary].T

    def step(
        self, solve: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray, bvals: np.ndarray
    ) -> np.ndarray:
        """One marching step: solve with the Dirichlet rows set to ``bvals``."""
        b = rhs.flatten()
        b[self.boundary] = bvals
        x = solve(b)
        # reimpose Dirichlet data bit-exactly; LU roundoff on the identity rows
        # otherwise leaks into trace differences of solves sharing data
        x[self.boundary] = bvals
        return x.reshape(self.grid.shape_space)


def _face_drift_coefficients(
    grid: Grid, k: np.ndarray, u_level: np.ndarray
) -> list[np.ndarray]:
    """a = (k du/dx_i) on the i+1/2 faces, per axis; arithmetic mean for k.

    ``u_level`` may carry a trailing time axis (a block of levels at once)
    if ``k`` broadcasts against it."""
    out = []
    for axis in range(grid.dim):
        lo, hi = _lo_hi(u_level.ndim, axis)
        k_face = 0.5 * (k[lo] + k[hi])
        du = (u_level[hi] - u_level[lo]) / grid.h[axis]
        out.append(k_face * du)
    return out


def _divergence_flux(
    grid: Grid, k: np.ndarray, m_level: np.ndarray, u_level: np.ndarray
) -> np.ndarray:
    """Conservative div(k m grad u) at interior nodes (zero on the boundary)."""
    a_faces = _face_drift_coefficients(grid, k, u_level)
    out = np.zeros(grid.shape_space)
    for axis in range(grid.dim):
        lo, hi = _lo_hi(grid.dim, axis)
        m_face = 0.5 * (m_level[lo] + m_level[hi])
        flux = a_faces[axis] * m_face
        div = (flux[hi] - flux[lo]) / grid.h[axis]
        # interior nodes along the axis: out[1:][:-1] is a view of out[1:-1]
        out[hi][lo] += div
    # zero rows on every face: boundary values come from data, not the PDE
    out[boundary_mask(grid)] = 0.0
    return out


# Space-time nodes in one block of levels whose face drift the density march
# computes in one array operation: 32 KB per face array.  One block of all
# levels keeps field-sized arrays alive through the march, which fragmented
# the heap and raised the peak resident memory of a 2-D 33x33x65 forward run
# by ~3 MB (4%); blocks above the allocator's 128 KB mmap threshold made its
# page faults vary up to threefold from run to run.  At this size 1-D grids
# still take dozens of levels per block, as fast as one block.
_DRIFT_BLOCK_NODES = 4096


def _check_blowup(equation: str, j: int, level: np.ndarray) -> None:
    worst = float(np.max(np.abs(level)))
    if not np.isfinite(worst) or worst > BLOWUP_THRESHOLD:
        raise BlowupError(equation, j, worst)


def _checked_coefficient(grid: Grid, k: np.ndarray) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.shape != grid.shape_space:
        raise ValueError(f"k must have spatial shape {grid.shape_space}")
    return k


def solve_fokker_planck(spec: ProblemSpec, k: np.ndarray, u: Field) -> Field:
    """March the density equation forward from the initial level.

    Backward Euler with the full spatial operator at the new level,
    unconditionally stable.  u is known at every level, so the face drift
    is computed for a block of levels at a time; each step writes its
    level's drift into the operator's fixed layout and factors it.  No step
    reads a level's magnitude, so one scan after the march finds the first
    level that blew up.
    """
    g = spec.grid
    k = _checked_coefficient(g, k)
    op = _SpatialOperator(g)
    bvals = op.dirichlet_values(spec.m_data)
    values = np.empty(g.shape)
    values[..., 0] = spec.m_data.values[..., 0]
    storage = None
    levels = max(1, _DRIFT_BLOCK_NODES // op.ns)
    for j0 in range(1, g.nt, levels):
        block = _face_drift_coefficients(g, k[..., None], u.values[..., j0 : j0 + levels])
        for j in range(j0, min(j0 + levels, g.nt)):
            storage = op.system(g.tau, [a[..., j - j0] for a in block], out=storage)
            values[..., j] = op.step(op.factor(storage), values[..., j - 1], bvals[j])
    # max |m| per level from its max and min, without a field-sized temporary
    spatial = tuple(range(g.dim))
    lowest = np.min(values, axis=spatial)
    worst = np.maximum(np.max(values, axis=spatial), -lowest)[1:]
    bad = np.flatnonzero(~np.isfinite(worst) | (worst > BLOWUP_THRESHOLD))
    if bad.size:
        raise BlowupError("fokker-planck", int(bad[0]) + 1, float(worst[bad[0]]))
    worst_min = float(np.min(lowest))
    if worst_min < 0.0:
        log.warning("density went negative: min m = %.3e (not clipped)", worst_min)
    return Field(g, values, _copy=False)


def solve_hjb(spec: ProblemSpec, k: np.ndarray, m: Field) -> Field:
    """March the value equation backward from the terminal level.

    The kernel and local-interaction terms use the frozen density; the
    quadratic gradient term is evaluated at the already-computed level
    (lagged), so every step is linear with the same matrix, factored once.
    """
    g = spec.grid
    k = _checked_coefficient(g, k)
    op = _SpatialOperator(g)
    tau = g.tau
    km = apply_kernel(spec.kernel, m).values
    fm = spec.f.values * m.values
    solve = op.factor(op.system(tau))
    bvals = op.dirichlet_values(spec.u_data)
    values = np.empty(g.shape)
    values[..., -1] = spec.u_data.values[..., -1]
    for j in range(g.nt - 2, -1, -1):
        prev = values[..., j + 1]
        rhs = prev - tau * (0.5 * k * grad_sq(g, prev) - km[..., j] - fm[..., j])
        level = op.step(solve, rhs, bvals[j])
        _check_blowup("hjb", j, level)
        values[..., j] = level
    return Field(g, values, _copy=False)


def solve_mfg_picard(
    spec: ProblemSpec,
    k: np.ndarray,
    *,
    damping: float = 0.5,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> MFGTriple:
    """Damped alternating fixed point for the coupled system.

    Iteration i solves the value equation against the current density
    iterate, then the density equation against that value; the density
    iterate is relaxed by ``damping``.  Convergence is declared when the
    undamped outputs of consecutive iterations differ by less than ``tol``
    in L2 over the cylinder; the reported iteration count is the index of
    the first iteration whose output the next one confirmed.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    g = spec.grid
    m0 = spec.m_data.values[..., :1]
    m_iter = Field(g, np.repeat(m0, g.nt, axis=-1), _copy=False)
    history: list[float] = []
    u_prev: Field | None = None
    m_prev_raw: Field | None = None
    for it in range(1, max_iter + 1):
        u_new = solve_hjb(spec, k, m_iter)
        m_raw = solve_fokker_planck(spec, k, u_new)
        if u_prev is not None:
            change = max(norm(u_new - u_prev, "L2"), norm(m_raw - m_prev_raw, "L2"))
            history.append(change)
            if change < tol:
                triple = MFGTriple(
                    u_new,
                    m_raw,
                    k,
                    report={
                        "iterations": it - 1,
                        "evaluations": it,
                        "history": history,
                        "tol": tol,
                        "damping": damping,
                    },
                )
                return triple
        u_prev = u_new
        m_prev_raw = m_raw
        damped = damping * m_raw.values + (1.0 - damping) * m_iter.values
        m_iter = Field(g, damped, _copy=False)
    raise PicardNonConvergence(history, max_iter, tol)


# ---------------------------------------------------------------------------
# manufactured triples


def manufacture_triple(
    grid: Grid,
    kernel: Kernel,
    k: np.ndarray,
    u_form: ClosedForm,
    m0: np.ndarray,
) -> tuple[MFGTriple, Field]:
    """Exact-solution triple: prescribed u, solved m, and the f that closes
    the value equation.

    f is assembled from the closed-form derivatives of u and the discrete
    kernel integral of the solved m, then divided by m pointwise; the
    division is rejected if m dips below ``M_FLOOR`` anywhere.
    """
    g = grid
    u = sample_field(g, u_form.fn)
    m0 = np.asarray(m0, dtype=float)
    # density data: initial profile frozen in time on the boundary
    m_data = Field(g, np.repeat(m0[..., None], g.nt, axis=-1), _copy=False)
    zero_f = Field(g, np.zeros(g.shape), _copy=False)
    spec0 = ProblemSpec(grid=g, kernel=kernel, f=zero_f, u_data=u, m_data=m_data)
    m = solve_fokker_planck(spec0, k, u)
    m_min = float(np.min(m.values))
    if m_min < M_FLOOR:
        j = np.unravel_index(np.argmin(m.values), m.values.shape)
        raise ValueError(
            f"solved density fell below the floor {M_FLOOR:.1e}: "
            f"min m = {m_min:.3e} at index {tuple(int(i) for i in j)}"
        )
    mesh = g.spacetime_meshgrid()
    shape = g.shape
    u_t = np.broadcast_to(np.asarray(u_form.d_t(*mesh), dtype=float), shape)
    u_lap = np.broadcast_to(np.asarray(u_form.lap(*mesh), dtype=float), shape)
    u_grad_sq = np.zeros(shape)
    for comp in u_form.grad:
        d = np.broadcast_to(np.asarray(comp(*mesh), dtype=float), shape)
        u_grad_sq = u_grad_sq + d * d
    km = apply_kernel(kernel, m).values
    f_values = (-u_t - u_lap + 0.5 * k[..., None] * u_grad_sq - km) / m.values
    f_field = Field(g, f_values, _copy=False)
    triple = MFGTriple(
        u,
        m,
        np.asarray(k, dtype=float),
        report={"manufactured": True, "m_min": m_min},
    )
    return triple, f_field


def spec_for_triple(triple: MFGTriple, kernel: Kernel, f: Field) -> ProblemSpec:
    """Forward-problem data whose solution the given triple is (by its own
    Dirichlet restrictions)."""
    return ProblemSpec(triple.grid, kernel, f, triple.u, triple.m)


# ---------------------------------------------------------------------------
# residuals


def residual(
    triple: MFGTriple, spec: ProblemSpec, which: str
) -> tuple[Field, float, float]:
    """Pointwise discrete residual of one equation, with interior norms.

    The value-equation residual applies central differences throughout; the
    density residual applies the solver's own conservative flux so the two
    paths share every spatial ingredient.  Norms exclude the boundary ring
    and end time levels, where one-sided stencils and marching seams live.
    """
    g = triple.grid
    u, m, k = triple.u, triple.m, triple.k
    if which == "hjb":
        km = apply_kernel(spec.kernel, m).values
        res = (
            field_dt(u).values
            + laplacian(g, u.values)
            - 0.5 * k[..., None] * grad_sq(g, u.values)
            + km
            + spec.f.values * m.values
        )
    elif which == "fp":
        div = np.empty(g.shape)
        for j in range(g.nt):
            div[..., j] = _divergence_flux(g, k, m.values[..., j], u.values[..., j])
        res = field_dt(m).values - laplacian(g, m.values) - div
    else:
        raise ValueError(f"unknown equation {which!r}; expected 'hjb' or 'fp'")
    mask = interior_mask(g, time_ring=1)
    masked = np.where(mask, res, 0.0)
    res_field = Field(g, masked, _copy=False)
    l2 = norm(res_field, "L2")
    worst = float(np.max(np.abs(masked)))
    return res_field, l2, worst
