"""Forward machinery for the coupled value/density system.

The system on the cylinder is

    u_t + Lap u - k (grad u)^2 / 2 + (K m) + f m = 0     (backward in time)
    m_t - Lap m - div(k m grad u) = 0                    (forward in time)

with Dirichlet data on the lateral boundary, a terminal condition for u and
an initial condition for m.  Neither equation is discretized in the source
material; the lab adopts the simplest scheme whose failure modes are
observable: backward-Euler marching in the stable direction for each
equation, the quadratic gradient term lagged one level to linearize the
value equation, and an alternating fixed point for the coupling whose
density iterate is updated by type-II Anderson mixing over a window of
one past iterate (plain damped relaxation when the window is empty).
Stepping is implicit because the downstream analysis differentiates
solutions twice in time, which amplifies any conditional instability.  The
marching matrix is laid out once per grid: the value equation's matrix does
not change in time and is factored once per Picard solve, and the density
march fills the matrices of a block of levels in one pass from their face
drift, with LAPACK: tridiagonal ``dgttrf``/``dgttrs`` in 1-D, one ``dgttrf``
call per block of levels, with the two Dirichlet nodes written by slice
around the solve; band ``dgbtrf``/``dgbtrs`` in n-D, one level at a time, on
the interior nodes alone, with their couplings to the Dirichlet nodes moved
to the right-hand side.  A march solves each level in place, by one LAPACK
call, in one buffer that holds the previous level; the value march writes
only the interior rows of the right-hand side, whose Dirichlet rows come
from the data.  Each march scans its levels for blow-up once, at its end.

Several coefficients march in lockstep along a member axis
(``solve_mfg_members``): one multi-column solve per value step, one
block-diagonal solve per density step, element-wise work along the member
axis, and per member its kernel term, convergence test and outcome, so that
each member gets the bits of its solve alone.  The marches take member
stacks only, of shape ``(*grid.nx, members, nt)``: a single solve is a
stack of one.

The Fokker-Planck divergence uses conservative face-centered fluxes
(arithmetic means of k, m and the first difference of u on the face), and
``residual``, which measures both equations in one call, applies the
identical flux so solver and residual differ only in time discretization.

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
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs

from .grid import (
    Grid,
    boundary_mask,
    dt,
    finite_array,
    grad_sq,
    laplacian,
    sample_field,
    sum_of_squares,
)
from .kernels import Kernel, apply_kernel
from .norms import masked_norms, norm

log = logging.getLogger(__name__)

__all__ = [
    "BlowupError",
    "PicardNonConvergence",
    "ProblemSpec",
    "MFGTriple",
    "ClosedForm",
    "bump_form",
    "steady_density",
    "solve_fokker_planck",
    "solve_mfg_members",
    "solve_mfg_picard",
    "manufacture_triple",
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
    """The alternating fixed point failed to settle within max_iter
    evaluations; ``history`` holds the change of each evaluation after the
    first, max_iter - 1 of them."""

    def __init__(self, history: list[float], max_iter: int, tol: float):
        self.history = list(history)
        self.max_iter = max_iter
        self.tol = tol
        tail = ", ".join(f"{r:.3e}" for r in history[-3:])
        super().__init__(
            f"no convergence after {max_iter} evaluations (tol {tol:.1e}); "
            f"last changes: {tail}"
        )


# ---------------------------------------------------------------------------
# problem data


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one forward problem: geometry, coupling, and Dirichlet data.

    ``f``, ``u_data`` and ``m_data`` are finite arrays of shape
    ``grid.shape``, marked read-only here.  ``f`` is the local-interaction
    coefficient.  ``u_data`` supplies u on the lateral boundary at every
    level and its terminal level; ``m_data`` supplies m on the lateral
    boundary and its initial level.  The solvers read no other entry of
    either.
    """

    grid: Grid
    kernel: Kernel
    f: np.ndarray
    u_data: np.ndarray
    m_data: np.ndarray

    def __post_init__(self) -> None:
        for name in ("f", "u_data", "m_data"):
            values = finite_array(name, getattr(self, name), self.grid.shape)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        m_min = np.min(self.m_data[..., 0])
        if m_min <= 0.0:
            raise ValueError(f"initial density must be positive, min = {m_min:.3e}")


@dataclass(frozen=True)
class MFGTriple:
    """A solution pair (u, m) on ``grid`` together with the coefficient k
    that made it; u and m are finite arrays of shape ``grid.shape`` and k a
    finite array of shape ``grid.shape_space``, all three marked read-only
    here."""

    grid: Grid
    u: np.ndarray
    m: np.ndarray
    k: np.ndarray
    report: dict = dataclass_field(compare=False)

    def __post_init__(self) -> None:
        g = self.grid
        for name, shape in (("u", g.shape), ("m", g.shape), ("k", g.shape_space)):
            values = finite_array(name, getattr(self, name), shape)
            values.setflags(write=False)
            object.__setattr__(self, name, values)


# ---------------------------------------------------------------------------
# closed forms for manufactured solutions


@dataclass(frozen=True)
class ClosedForm:
    """A function of (x_1, ..., x_n, t) with hand-written exact derivatives:
    ``d_t``, ``grad_sq`` (the squared gradient norm) and ``lap``.

    The exactness matters: manufactured coefficients are built from these
    callables rather than from finite differences, so the residuals of the
    manufactured triple measure pure discretization error.
    """

    fn: Callable
    d_t: Callable
    grad_sq: Callable
    lap: Callable


def bump_form(prism, amplitude: float) -> ClosedForm:
    """u = x_1^2 + amplitude sin(pi s) p(t), s the normalized first coordinate
    and p(t) = (4 t (T - t) / T^2)^2.

    Smooth and non-degenerate (the x_1^2 part dominates for small
    amplitudes), with genuine interior time dependence.  The time profile
    and its first derivative vanish at both ends, so a density started in
    the steady state of the t = 0 drift keeps two orders of corner
    compatibility with frozen boundary data; without that the corner layer
    ruins the observable convergence order of the density residual.  A T
    whose fourth power is 0 or out of range raises ValueError.
    """
    a, b, T = prism.a, prism.b, prism.T
    w = math.pi / (b - a)
    try:
        c4 = 16.0 / T**4
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"T = {T:g} takes T^4 out of floating-point range") from None

    def s(c):
        return w * (c[0] - a)

    def p(t):
        return c4 * (t * (T - t)) ** 2

    def p_t(t):
        return c4 * 2.0 * t * (T - t) * (T - 2.0 * t)

    return ClosedForm(
        fn=lambda *c: c[0] ** 2 + amplitude * np.sin(s(c)) * p(c[-1]),
        d_t=lambda *c: amplitude * np.sin(s(c)) * p_t(c[-1]),
        grad_sq=lambda *c: (2.0 * c[0] + amplitude * w * np.cos(s(c)) * p(c[-1])) ** 2,
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


def _lo_hi(ndim: int, axis: int, gap: int, rest: slice = slice(None)) -> tuple[tuple, tuple]:
    """Index tuples taking entries 0..n-1-gap (lo) and gap..n-1 (hi) along
    ``axis`` and ``rest`` along every other axis."""
    lo = [rest] * ndim
    hi = [rest] * ndim
    lo[axis] = slice(0, -gap)
    hi[axis] = slice(gap, None)
    return tuple(lo), tuple(hi)


def _tridiagonal_solve(n: int, factors: tuple, b: np.ndarray) -> np.ndarray:
    """Solve ``b`` in place with the ``dgttrs`` factors of an order-n matrix
    and return it: a single member's columns are one right-hand side each,
    the members' columns end to end the block-diagonal system's one."""
    dgttrs(*factors, b.reshape(n, -1, order="F"), overwrite_b=1)
    return b


# Least half-bandwidth of the n-D band system.  Reference LAPACK's
# ``dgbtrf`` runs its blocked code only when kl is at least its block size,
# 32, and its unblocked code is the slower one: at 33x33, where the interior
# stride is 31, one factorization took 0.52-0.59 ms unpadded and 0.30-0.32
# ms padded to 32 (medians of three runs of 5 x 300 calls, 2-vCPU Xeon,
# scipy-openblas 0.3.31, one thread).
_MIN_HALF_BANDWIDTH = 32


class _SpatialOperator:
    """The marching system I - tau (L + D) of one grid, laid out once.

    L is the interior Laplacian stencil and D the conservative drift
    operator m -> div(a m) with face-centered fluxes; the boundary nodes
    carry the Dirichlet data.  The matrix lives in one flat array with a
    fixed layout: the three bands of a tridiagonal matrix in 1-D, whose
    boundary rows are identity rows; in n-D the interior rows alone, over
    the interior nodes numbered in C order of the interior box: every
    interior node's diagonal, then its lower and upper neighbour axis by
    axis.  ``band_entries`` are the n-D entries that couple two interior
    nodes, and ``band_slots`` maps them into the LAPACK band storage that
    ``factor`` fills, half-bandwidth the interior stride of axis 0 but at
    least ``_MIN_HALF_BANDWIDTH``; the other entries couple an interior node
    next to a boundary face to its boundary neighbour (``faces``), and the
    solve moves them to the right-hand side.  The slot arrays map each
    stencil entry of an interior row (diagonal, and per axis the lower and
    upper neighbour) to its position there, so a new drift rewrites values
    only; in 1-D they are slices.  ``system`` fills that storage for a whole
    block of levels in one pass, one contiguous block per level with the
    members side by side.  ``dirichlet_rows`` index the boundary nodes of a
    flat level, which a march writes around each in-place solve.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        ns = self.ns = int(np.prod(grid.nx))
        on_boundary = boundary_mask(grid).ravel()
        self.boundary = np.flatnonzero(on_boundary)
        self.interior = np.flatnonzero(~on_boundary)
        self.dim = grid.dim
        self.shape = grid.shape_space
        self.dirichlet_rows = slice(0, None, ns - 1) if self.dim == 1 else self.boundary
        if self.dim == 1:
            # band rows: [0, j] = A[j-1, j], [1, j] = A[j, j], [2, j] = A[j+1, j],
            # for the interior columns j = 1 .. ns - 2
            self.diag_slots = slice(ns + 1, 2 * ns - 1)
            self.lower_slots = [slice(2 * ns, 3 * ns - 2)]
            self.upper_slots = [slice(2, ns)]
            # the entries no stencil writes: the boundary rows
            self._template = np.zeros(3 * ns)
            self._template[ns + self.boundary] = 1.0
            return
        inner = self._inner = tuple(n - 2 for n in grid.nx)
        ni = self.ni = math.prod(inner)
        strides = [math.prod(inner[axis + 1 :]) for axis in range(self.dim)]
        nodes = np.arange(ni)
        index = np.unravel_index(nodes, inner)
        rows, cols, self.faces = [nodes], [nodes], []
        # per axis the lower, then the upper neighbour: rows off that face of
        # the box couple inside it; rows on it couple to the boundary nodes
        # across the face (``faces``: the entry, the face in the interior
        # box, and the boundary nodes next to it)
        for axis in range(self.dim):
            for entry, end, sign in ((1 + 2 * axis, 0, -1), (2 + 2 * axis, -1, 1)):
                row = nodes[index[axis] != end % inner[axis]]
                rows.append(row)
                cols.append(row + sign * strides[axis])
                face = [slice(None)] * self.dim
                outer = [slice(1, -1)] * self.dim
                face[axis] = outer[axis] = end
                self.faces.append((entry, tuple(face), tuple(outer)))
        self.band_entries = np.concatenate(
            [entry * ni + row for entry, row in enumerate(rows)]
        )
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        # A[row, col] is ab[kl + ku + row - col, col] of band storage with
        # kl = ku; its top kl rows take the LU fill-in
        kl = self.kl = max(strides[0], _MIN_HALF_BANDWIDTH)
        self.band_slots = 2 * kl + rows - cols + (3 * kl + 1) * cols
        self.diag_slots = slice(0, ni)
        self.lower_slots = [slice((1 + 2 * a) * ni, (2 + 2 * a) * ni) for a in range(self.dim)]
        self.upper_slots = [slice((2 + 2 * a) * ni, (3 + 2 * a) * ni) for a in range(self.dim)]
        # every n-D slot is a stencil entry
        self._template = np.zeros((1 + 2 * self.dim) * ni)

    def couplings(
        self, tau: float, a_faces: Sequence[np.ndarray] | None
    ) -> tuple[np.ndarray | float, list, list]:
        """Diagonal and per-axis lower and upper entries of I - tau (L + D)
        on the interior rows, in flat node order, keeping the trailing axes
        of the face drifts (a level axis, with a member axis before it for a
        group); ``a_faces=None`` drops D.

        Every entry sums its Laplacian terms first, then its drift terms,
        axis by axis; the 1-D outputs are bitwise to this order, so keep it.
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
            lo, hi = _lo_hi(self.dim, axis, 1, slice(1, -1))
            trailing = a.shape[self.dim :]
            minus = a[lo].reshape((-1,) + trailing)
            plus = a[hi].reshape((-1,) + trailing)
            diag = diag - (plus - minus) / (2.0 * h) * tau
            upper[axis] = upper[axis] - plus / (2.0 * h) * tau
            lower[axis] = lower[axis] + minus / (2.0 * h) * tau
        return diag, lower, upper

    def system(self, tau: float, a_faces: Sequence[np.ndarray] | None = None) -> np.ndarray:
        """Flat storage of I - tau (L + D), filled in one pass.  Face drifts
        with trailing axes (members, levels) give Fortran-order storage of
        shape (slots, members, levels), so each level's storage is one
        contiguous block with the members side by side; face drifts with a
        level axis alone give shape (slots, levels), and ``a_faces=None``
        one column."""
        diag, lower, upper = self.couplings(tau, a_faces)
        trailing = () if a_faces is None else a_faces[0].shape[self.dim :]
        out = np.empty(self._template.shape + trailing, order="F")
        out.T[...] = self._template
        out[self.diag_slots] = diag
        for slots, vals in zip(self.lower_slots + self.upper_slots, lower + upper):
            out[slots] = vals
        return out

    def factor(self, storage: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Solver for the system held in ``storage``: one level, of shape
        (slots,) or (slots, members).  The members' systems form one
        block-diagonal matrix, their blocks side by side with zero couplings
        between them, and each block gets the bits of its own factorization.
        In n-D ``dgbtrf`` factors the interior block, scattered into zeroed
        band storage, one call per member: past 64 bands it factors in
        panels, and a panel straddling two members rounds differently.  In
        1-D this is ``factor_levels`` of one level.

        The solve takes every node, the boundary nodes holding their
        Dirichlet values, as an array of shape (ns,) or a Fortran-order (ns,
        columns) array: a column per member, or, for a single member, any
        number of columns, one right-hand side each.  It solves in place
        and returns its argument.  In 1-D it is one ``dgttrs`` call on the
        whole argument, whose boundary rows are identity rows; in n-D it
        subtracts each interior row's couplings to boundary nodes times
        their values from the right-hand side, solves the interior block
        with ``dgbtrs``, and leaves the boundary nodes as they are.  A
        singular matrix raises ``np.linalg.LinAlgError``."""
        if self.dim == 1:
            return next(self.factor_levels(storage.reshape(len(storage), -1, 1)))
        entries = storage.reshape(self._template.size, -1)
        members = entries.shape[1]
        kl, ni = self.kl, self.ni
        n = members * ni
        lu = np.zeros((3 * kl + 1, n), order="F")
        lu.T.reshape(members, -1)[:, self.band_slots] = entries[self.band_entries].T
        ipiv = np.empty(n, dtype=np.int32)
        for i in range(0, n, ni):
            # in place: a column slice of Fortran-order storage is contiguous
            _, ipiv[i : i + ni], info = dgbtrf(lu[:, i : i + ni], kl, kl, overwrite_ab=1)
            if info != 0:
                raise np.linalg.LinAlgError("singular matrix")
            ipiv[i : i + ni] += i
        stencil = entries.reshape((-1,) + self._inner + (members,))
        walls = [(stencil[entry][face], face, outer) for entry, face, outer in self.faces]
        inside = (slice(1, -1),) * self.dim

        def solve(b: np.ndarray) -> np.ndarray:
            nodes = b.reshape(self.shape + (-1,))
            rhs = np.empty((ni, nodes.shape[-1]), order="F")
            box = rhs.reshape(self._inner + (-1,))
            box[...] = nodes[inside]
            for coupling, face, outer in walls:
                box[face] -= coupling * nodes[outer]
            # the members' columns end to end are the block-diagonal system's
            # one right-hand side
            dgbtrs(lu, kl, kl, rhs.reshape(n, -1, order="F"), ipiv, overwrite_b=1)
            nodes[inside] = box
            return b

        return solve

    def factor_levels(self, block: np.ndarray) -> Iterator[Callable[[np.ndarray], np.ndarray]]:
        """Solvers for the systems of ``block``, of shape (slots, members,
        levels), one per level in order, as ``factor`` makes them.  In 1-D
        one ``dgttrf`` call factors the three bands of every level and
        member as one block-diagonal matrix, one subtraction makes each
        level's pivots relative to its own slice, and each level's solver
        is one ``dgttrs`` call on that slice of the factors; in n-D each
        level is factored when its solver is asked for."""
        if self.dim > 1:
            for j in range(block.shape[-1]):
                yield self.factor(block[..., j])
            return
        _, members, levels = block.shape
        ab = block.T.reshape(levels * members, 3, self.ns)
        dl, d, du, du2, ipiv, info = dgttrf(
            ab[:, 2].ravel()[:-1], ab[:, 1].ravel(), ab[:, 0].ravel()[1:]
        )
        if info != 0:
            raise np.linalg.LinAlgError("singular matrix")
        n = members * self.ns
        ipiv.reshape(levels, n)[...] -= np.arange(0, levels * n, n, dtype=ipiv.dtype)[:, None]
        for a in range(0, levels * n, n):
            factors = (dl[a : a + n - 1], d[a : a + n], du[a : a + n - 1], du2[a : a + n - 2])
            yield partial(_tridiagonal_solve, n, factors + (ipiv[a : a + n],))

    def dirichlet_values(self, data: np.ndarray) -> np.ndarray:
        """Dirichlet values of every time level, shape (nt, boundary nodes,
        1): a column that every member shares."""
        return data.reshape(self.ns, self.grid.nt)[self.boundary].T[..., None]


def _face_drift_coefficients(
    grid: Grid, k: np.ndarray, u_level: np.ndarray
) -> list[np.ndarray]:
    """a = (k du/dx_i) on the i+1/2 faces, per axis; arithmetic mean for k.

    ``u_level`` may carry a trailing time axis (a block of levels at once)
    if ``k`` broadcasts against it."""
    out = []
    for axis in range(grid.dim):
        lo, hi = _lo_hi(u_level.ndim, axis, 1)
        k_face = 0.5 * (k[lo] + k[hi])
        du = (u_level[hi] - u_level[lo]) / grid.h[axis]
        out.append(k_face * du)
    return out


def _divergence_flux(
    grid: Grid, k: np.ndarray, m_level: np.ndarray, u_level: np.ndarray
) -> np.ndarray:
    """Conservative div(k m grad u) at interior nodes (zero on the boundary).

    ``m_level`` and ``u_level`` may carry a trailing time axis if ``k``
    broadcasts against them."""
    a_faces = _face_drift_coefficients(grid, k, u_level)
    out = np.zeros(m_level.shape)
    for axis in range(grid.dim):
        lo, hi = _lo_hi(grid.dim, axis, 1)
        m_face = 0.5 * (m_level[lo] + m_level[hi])
        flux = a_faces[axis] * m_face
        div = (flux[hi] - flux[lo]) / grid.h[axis]
        # interior nodes along the axis: out[1:][:-1] is a view of out[1:-1]
        out[hi][lo] += div
    # zero rows on every face: boundary values come from data, not the PDE
    out[boundary_mask(grid)] = 0.0
    return out


# Space-time nodes, over all members, in one block of levels whose face
# drift and marching storage the density march fills in one pass: 32 KB per
# face array, and storage of up to 2 dim + 1 entries per node (per interior
# node in n-D); ``factor`` fills the n-D band storage, 3 kl + 1 entries per
# interior node, for its one level (for a 3-level block at 33x33 that would
# be 2.2 MB, not 115 KB).  One
# block of all levels keeps field-sized arrays alive through the march,
# which fragmented the heap and raised the peak resident memory of a 2-D
# 33x33x65 forward run by ~3 MB (4%); blocks above the allocator's 128 KB
# mmap threshold made its page faults vary up to threefold from run to run.
# At this size a lone 1-D member still takes dozens of levels per block, as
# fast as one block.
_DRIFT_BLOCK_NODES = 4096


# Past density iterates in the Anderson mixing window of the coupling
# iteration (``_picard_group``): 1 or 0.  One costs one space-time array
# per member and halves the evaluations of the default problems (20 -> 10
# on the 2-D 33x33x65 causal forward solve, 21 -> 12 on the default 1-D
# sweep); 0 is the plain damped step x_{k+1} = (1 - damping) x_k +
# damping g_k.
_MIXING_WINDOW = 1


# Space-time nodes of the members that one lockstep group marches at once
# (``solve_mfg_members``): the group width is this budget over the nodes of
# one member, 7 at 65x257 (the whole default sweep) and 1 at 33x33x65.  Each
# member holds five space-time arrays through its solve (four, plus the
# mixing window's past iterate), so memory sets the budget, not speed; a
# group whose last members converge together frees all but two of them
# before copying the results out.  The table below was measured with four
# arrays per member.  The 65x257 sweep by width (medians of three
# interleaved ``perfbench/run.py --workload sweep-1d --seed 7 --seconds 10
# --trace 0`` runs, one thread, on a 2-vCPU Xeon whose speed drifts by tens
# of percent between runs; "4, before" is the previous budget, without the
# early free):
#
#   width      groups  run_s    peak RSS
#   4, before  4+3     0.882 s  62.60 MB
#   4          4+3     0.902 s  62.51 MB
#   5          5+2     0.857 s  62.85 MB
#   6          6+1     0.791 s  63.15 MB
#   7          7       0.730 s  63.51 MB
_GROUP_NODES = 120_000


def _scan_blowup(
    equation: str, values: np.ndarray, marched: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[BlowupError | None]]:
    """Per member of the stack ``values``, shape ``(*grid.nx, members,
    nt)``: each level's minimum, the max |value| of each ``marched`` level
    (from its max and min, without a field-sized temporary), and the
    BlowupError for the first marched level, in march order, whose max
    |value| is not finite or exceeds BLOWUP_THRESHOLD, or None."""
    spatial = tuple(range(values.ndim - 2))
    lowest = np.min(values, axis=spatial)
    worst = np.maximum(np.max(values, axis=spatial), -lowest)[:, marched]
    errors: list[BlowupError | None] = []
    for row in worst:
        bad = np.flatnonzero(~np.isfinite(row) | (row > BLOWUP_THRESHOLD))
        errors.append(
            BlowupError(equation, int(marched[bad[0]]), float(row[bad[0]])) if bad.size else None
        )
    return lowest, worst, errors


def _march_fp(
    spec: ProblemSpec, op: _SpatialOperator, k: np.ndarray, u: np.ndarray, out: np.ndarray
) -> list[BlowupError | None]:
    """March the density equation forward for a group of members in
    lockstep, writing ``out``; returns each member's BlowupError or None.

    ``u`` and ``out`` are stacks of shape ``(*grid.nx, members, nt)`` and
    ``k`` has shape ``(*grid.nx, members)``.  u is known at every level, so
    the face drift and the block-diagonal marching storage of all members
    are filled for a block of levels at a time and factored as
    ``factor_levels`` does.  The march's one solve buffer holds the
    previous level; each step writes its Dirichlet rows, solves in place,
    writes them again and copies the buffer into ``out``.  No step reads a
    level's magnitude, so one scan after the march finds each member's
    first level that blew up.
    """
    g = spec.grid
    members = out.shape[-2]
    bvals = op.dirichlet_values(spec.m_data)
    rows = op.dirichlet_rows
    buffer = np.empty((op.ns, members), order="F")
    nodes = buffer.reshape(g.shape_space + (members,))
    nodes[...] = out[..., 0] = spec.m_data[..., None, 0]
    levels = max(1, _DRIFT_BLOCK_NODES // (op.ns * members))
    for j0 in range(1, g.nt, levels):
        drift = _face_drift_coefficients(g, k[..., None], u[..., j0 : j0 + levels])
        block = op.system(g.tau, drift)
        solvers = op.factor_levels(block)
        for j in range(j0, j0 + block.shape[-1]):
            buffer[rows] = bvals[j]
            next(solvers)(buffer)
            # reimpose the Dirichlet data bit-exactly: 1-D LU roundoff on the
            # identity rows would leak into trace differences of solves
            buffer[rows] = bvals[j]
            out[..., j] = nodes
    lowest, worst, errors = _scan_blowup("fokker-planck", out, np.arange(1, g.nt))
    if members > 1 and not np.all(np.isfinite(worst)):
        # 0 * inf is NaN: a non-finite value crosses the zero couplings
        # between the members' blocks, so each member marches alone
        return [
            error
            for i in range(members)
            for error in _march_fp(
                spec, op, k[..., i : i + 1], u[..., i : i + 1, :], out[..., i : i + 1, :]
            )
        ]
    for level_min, error in zip(lowest, errors):
        worst_min = float(np.min(level_min))
        if error is None and worst_min < 0.0:
            log.warning("density went negative: min m = %.3e (not clipped)", worst_min)
    return errors


def _march_hjb(
    spec: ProblemSpec,
    op: _SpatialOperator,
    solve: Callable[[np.ndarray], np.ndarray],
    k: np.ndarray,
    m: np.ndarray,
    values: np.ndarray,
) -> list[BlowupError | None]:
    """March the value equation backward for a group of members in
    lockstep; returns each member's BlowupError or None.

    ``m`` (the frozen density) and ``values`` are stacks of shape
    ``(*grid.nx, members, nt)`` and ``k`` has shape ``(*grid.nx,
    members)``; ``solve`` solves with I - tau L, which depends on neither k
    nor m.  ``values`` holds the kernel term of m on entry and the value on
    return: each level's kernel term is read once, by the step that then
    overwrites it.  The quadratic gradient term is evaluated at the
    already-computed level (lagged), so every step is linear with that one
    matrix, and one call solves every member's level as a column.  The
    march's one solve buffer holds the previous level.  Each step
    overwrites its interior nodes alone with the right-hand side, taking
    ``grad_sq``'s central differences and sum of squares in its order, and
    solves as the density march does.  As there, one scan after the march
    finds each member's first level that blew up.
    """
    g = spec.grid
    tau = g.tau
    members = values.shape[-2]
    bvals = op.dirichlet_values(spec.u_data)
    rows = op.dirichlet_rows
    buffer = np.empty((op.ns, members), order="F")
    nodes = buffer.reshape(g.shape_space + (members,))
    inside = (slice(1, -1),) * g.dim
    rhs = nodes[inside]
    # per axis the interior nodes' lower and upper neighbours, and 2 h
    stencils = [(*_lo_hi(g.dim, axis, 2, slice(1, -1)), 2.0 * h) for axis, h in enumerate(g.h)]
    half_k = 0.5 * k[inside]
    f = spec.f[inside][..., None, :]
    m = m[inside]
    kernel_term = values[inside]
    nodes[...] = values[..., -1] = spec.u_data[..., None, -1]
    marched = np.arange(g.nt - 2, -1, -1)
    # levels marched after a blow-up overflow; the scan below reports the first
    with np.errstate(over="ignore", invalid="ignore"):
        for j in marched:
            gs = sum_of_squares((nodes[hi] - nodes[lo]) / h2 for lo, hi, h2 in stencils)
            rhs -= tau * ((half_k * gs - kernel_term[..., j]) - f[..., j] * m[..., j])
            buffer[rows] = bvals[j]
            solve(buffer)
            buffer[rows] = bvals[j]
            values[..., j] = nodes
    return _scan_blowup("hjb", values, marched)[2]


def solve_fokker_planck(spec: ProblemSpec, k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """March the density equation forward from the initial level.

    Backward Euler with the full spatial operator at the new level; the
    march of a stack of one.  The off-diagonals of I - tau (L + D) stay
    non-positive only while every face drift a = k du/dx_i has
    |a| h <= 2.  Past that a drift-dominated cell can blow the density up,
    which raises BlowupError.  k and u must be finite arrays of shape
    ``grid.shape_space`` and ``grid.shape``.
    """
    g = spec.grid
    k = finite_array("k", k, g.shape_space)
    u = finite_array("u", u, g.shape)
    out = np.empty(g.shape_space + (1, g.nt))
    (error,) = _march_fp(spec, _SpatialOperator(g), k[..., None], u[..., None, :], out)
    if error is not None:
        raise error
    return out[..., 0, :]


def _mixing_weight(
    x: np.ndarray, g: np.ndarray, x_past: np.ndarray, g_past: np.ndarray, levels: int
) -> float:
    """Type-II Anderson weight gamma of one member over a window of one
    past iterate: with the residuals f = g - x and f_past = g_past -
    x_past, gamma minimizes the sum of squares over the nodes of f - gamma
    d, d = f - f_past, so gamma = <d, f> / <d, d>, or 0 when d vanishes.
    The inner products are summed one block of ``levels`` levels at a time,
    in an order that only the member's own arrays fix."""
    df = dd = 0.0
    for j0 in range(0, x.shape[-1], levels):
        j = slice(j0, j0 + levels)
        f = g[..., j] - x[..., j]
        d = f - (g_past[..., j] - x_past[..., j])
        df += float(np.sum(d * f))
        dd += float(np.sum(d * d))
    return df / dd if dd > 0.0 else 0.0


def _picard_group(
    spec: ProblemSpec,
    ks: list[np.ndarray],
    *,
    damping: float,
    max_iter: int,
    tol: float,
) -> list[MFGTriple | RuntimeError]:
    """Outcome of each member of one lockstep group (see
    ``solve_mfg_members``).

    The marching operator and the factored value-equation matrix are built
    once for the group.  Every per-member array is a stack of shape
    ``(*grid.nx, members, nt)``; active members occupy its leading member
    rows.  Four stacks serve a whole solve: the density iterate, the value,
    the density, and a spare.  Each evaluation marches the value into the
    spare (over the kernel term), leaves the change in the old value's
    stack, and marches the density into that stack.  A mixing window
    (``_MIXING_WINDOW``) adds one stack, the past iterate x_{k-1}; the past
    output g_{k-1} is still in the spare when the iterate is updated.  A
    member that converges or fails leaves: the last active row moves into
    its place.  Every member's change is computed before any result is
    copied out; when all the remaining members converge in one evaluation,
    the density iterate, the previous density and the window are released
    first, so their memory holds the copies of u and m.
    """
    g = spec.grid
    op = _SpatialOperator(g)
    solve = op.factor(op.system(g.tau))
    k = np.stack(ks, axis=-1)
    rows = list(range(len(ks)))  # the member in each active row
    histories: list[list[float]] = [[] for _ in ks]
    u_change = [0.0] * len(ks)
    outcomes: list = [None] * len(ks)
    shape = g.shape_space + (len(ks), g.nt)
    m_iter = np.empty(shape)
    m_iter[...] = spec.m_data[..., None, :1]
    u, spare, m_prev = (np.empty(shape) for _ in range(3))
    # the mixing window's past iterate, if there is a window
    window = [np.empty(shape) for _ in range(_MIXING_WINDOW)]

    def leave(results: list) -> None:
        """Record each finished row's outcome and close the gap.  Rows
        leave from the last, so when every row leaves none is moved, and
        released stacks are never touched."""
        for r in reversed(range(len(results))):
            if results[r] is None:
                continue
            outcomes[rows[r]] = results[r]
            last = len(rows) - 1
            if r != last:
                for a in (m_iter, u, spare, m_prev, *window):
                    a[..., r, :] = a[..., last, :]
                k[..., r] = k[..., last]
                rows[r] = rows[last]
            rows.pop()

    def mix(it: int) -> None:
        """Overwrite the density iterate x_k with x_{k+1} = (1 - gamma) y_k +
        gamma y_{k-1}, y_i = (1 - damping) x_i + damping g_i, where gamma is
        the member's ``_mixing_weight``, and keep x_k in the window.  Without
        a window, or before it holds an iterate, this is the damped step
        y_k.  Block by block of levels, so that no temporary is
        member-sized."""
        n = len(rows)
        mixed = bool(window) and it > 1
        if mixed:
            past = window[0]
            gamma = np.empty((n, 1))
            levels = max(1, _DRIFT_BLOCK_NODES // op.ns)
            for r in range(n):
                gamma[r, 0] = _mixing_weight(
                    m_iter[..., r, :], m_prev[..., r, :], past[..., r, :], spare[..., r, :], levels
                )
        block = max(1, _DRIFT_BLOCK_NODES // (op.ns * n))
        for j0 in range(0, g.nt, block):
            j = slice(j0, j0 + block)
            new = (1.0 - damping) * m_iter[..., :n, j] + damping * m_prev[..., :n, j]
            if mixed:
                new *= 1.0 - gamma
                new += gamma * ((1.0 - damping) * past[..., :n, j] + damping * spare[..., :n, j])
            if window:
                window[0][..., :n, j] = m_iter[..., :n, j]
            m_iter[..., :n, j] = new

    for it in range(1, max_iter + 1):
        for r in range(len(rows)):
            spare[..., r, :] = apply_kernel(spec.kernel, g, m_iter[..., r, :])
        n = len(rows)
        leave(_march_hjb(spec, op, solve, k[..., :n], m_iter[..., :n, :], spare[..., :n, :]))
        if it > 1:
            n = len(rows)
            np.subtract(spare[..., :n, :], u[..., :n, :], out=u[..., :n, :])
            for r, member in enumerate(rows):
                u_change[member] = norm(g, u[..., r, :], "L2")
        u, spare = spare, u
        if rows:
            n = len(rows)
            leave(_march_fp(spec, op, k[..., :n], u[..., :n, :], spare[..., :n, :]))
        if it > 1:
            changes = []
            for r, member in enumerate(rows):
                m = spare[..., r, :]
                changes.append(max(u_change[member], norm(g, m - m_prev[..., r, :], "L2")))
                histories[member].append(changes[-1])
            if all(change < tol for change in changes):
                # every member leaves now: the copies reuse the iterate stacks
                m_iter = m_prev = None
                window.clear()
            converged: list = []
            for r, (member, change) in enumerate(zip(rows, changes)):
                report = {
                    "iterations": it - 1,
                    "evaluations": it,
                    "history": histories[member],
                    "tol": tol,
                    "damping": damping,
                }
                m = spare[..., r, :]
                converged.append(
                    MFGTriple(g, u[..., r, :].copy(), m.copy(), ks[member], report=report)
                    if change < tol
                    else None
                )
            leave(converged)
        if not rows:
            return outcomes
        m_prev, spare = spare, m_prev
        mix(it)
    for member in rows:
        outcomes[member] = PicardNonConvergence(histories[member], max_iter, tol)
    return outcomes


def solve_mfg_members(
    spec: ProblemSpec,
    ks: Sequence[np.ndarray],
    *,
    damping: float,
    max_iter: int,
    tol: float,
) -> Iterator[MFGTriple | RuntimeError]:
    """Each coefficient's outcome, in order: the MFGTriple of its Picard
    solve (see ``solve_mfg_picard``), or the PicardNonConvergence or
    BlowupError it ended in, bitwise as if it were solved alone.

    Consecutive coefficients are solved in lockstep groups: every time step
    of a march makes one set of calls for the whole group, along a member
    axis.  The group width is ``_GROUP_NODES`` over the space-time nodes of
    one member.  Each member keeps its own kernel term, convergence test,
    change history and mixing window, and leaves its group as soon as it
    converges or fails.
    A group is solved when its first outcome is asked for.  Every
    coefficient must be a finite array of shape ``grid.shape_space``; a
    ValueError names the first that is not, before any group is solved.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    g = spec.grid
    ks = [finite_array(f"coefficient {i}", k, g.shape_space) for i, k in enumerate(ks)]
    width = max(1, _GROUP_NODES // math.prod(g.shape))
    for start in range(0, len(ks), width):
        outcomes = _picard_group(
            spec, ks[start : start + width], damping=damping, max_iter=max_iter, tol=tol
        )
        while outcomes:
            yield outcomes.pop(0)


def solve_mfg_picard(
    spec: ProblemSpec,
    k: np.ndarray,
    *,
    damping: float,
    max_iter: int,
    tol: float,
) -> MFGTriple:
    """Anderson-accelerated alternating fixed point for the coupled system.

    Iteration k solves the value equation against the density iterate x_k,
    then the density equation against that value, which gives the output
    g_k.  The next iterate is type-II Anderson mixing (Walker & Ni 2011)
    over a window of one past iterate, with mixing parameter ``damping``:
    x_{k+1} = (1 - gamma) y_k + gamma y_{k-1}, y_i = (1 - damping) x_i +
    damping g_i, where gamma minimizes the sum of squares, over the
    space-time nodes, of the combined residual (1 - gamma) (g_k - x_k) +
    gamma (g_{k-1} - x_{k-1}).  With ``_MIXING_WINDOW`` set to 0 this is
    the damped fixed point x_{k+1} = y_k.  Convergence is declared when
    the value and the output of consecutive iterations differ by less than
    ``tol`` in L2 over the cylinder; the reported iteration count is the
    index of the first iteration whose output the next one confirmed.  The
    solve is the group of one of ``solve_mfg_members``.
    """
    outcome = next(solve_mfg_members(spec, [k], damping=damping, max_iter=max_iter, tol=tol))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# manufactured triples


def manufacture_triple(
    grid: Grid,
    kernel: Kernel,
    k: np.ndarray,
    u_form: ClosedForm,
    m0: np.ndarray,
) -> tuple[MFGTriple, np.ndarray]:
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
    m_data = np.repeat(m0[..., None], g.nt, axis=-1)
    spec0 = ProblemSpec(grid=g, kernel=kernel, f=np.zeros(g.shape), u_data=u, m_data=m_data)
    m = solve_fokker_planck(spec0, k, u)
    m_min = float(np.min(m))
    if m_min < M_FLOOR:
        j = np.unravel_index(np.argmin(m), m.shape)
        raise ValueError(
            f"solved density fell below the floor {M_FLOOR:.1e}: "
            f"min m = {m_min:.3e} at index {tuple(int(i) for i in j)}"
        )
    mesh = g.spacetime_meshgrid()
    shape = g.shape
    u_t = np.broadcast_to(np.asarray(u_form.d_t(*mesh), dtype=float), shape)
    u_lap = np.broadcast_to(np.asarray(u_form.lap(*mesh), dtype=float), shape)
    u_grad_sq = np.broadcast_to(np.asarray(u_form.grad_sq(*mesh), dtype=float), shape)
    km = apply_kernel(kernel, g, m)
    f = (-u_t - u_lap + 0.5 * k[..., None] * u_grad_sq - km) / m
    f = finite_array("manufactured f", f, shape)
    triple = MFGTriple(g, u, m, k, report={"manufactured": True, "m_min": m_min})
    return triple, f


# ---------------------------------------------------------------------------
# residuals


def residual(triple: MFGTriple, spec: ProblemSpec) -> dict[str, tuple[float, float]]:
    """Interior residual norms (L2, max) of the value ("hjb") and density
    ("fp") equations.

    The value-equation residual applies central differences throughout; the
    density residual applies the solver's own conservative flux so the two
    paths share every spatial ingredient.  Norms exclude the boundary ring
    and end time levels, where one-sided stencils and marching seams live.
    """
    g = triple.grid
    u, m, k = triple.u, triple.m, triple.k
    hjb = (
        dt(g, u)
        + laplacian(g, u)
        - 0.5 * k[..., None] * grad_sq(g, u)
        + apply_kernel(spec.kernel, g, m)
        + spec.f * m
    )
    fp = dt(g, m) - laplacian(g, m) - _divergence_flux(g, k[..., None], m, u)
    return {"hjb": masked_norms(g, hjb, 1, None), "fp": masked_norms(g, fp, 1, None)}
