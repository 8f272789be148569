"""Prism geometry, tensor-product grids, and discrete calculus.

The spatial domain is an open prism

    Omega = (a, b) x (-B_2, B_2) x ... x (-B_n, B_n),    0 < a < b,

and all space-time objects live on the closed cylinder ``Omega x [0, T]``.
The first coordinate is distinguished throughout: the weight functions used
by the weighted energy estimates depend on ``x_1`` only, and the causal
kernels integrate along ``x_1``.  Grids are uniform tensor products; the
number of time levels is kept odd so that the central time ``t0 = T/2`` is
always a grid node.

Conventions used by every module downstream:

* field arrays carry spatial axes first and the time axis last,
  ``values.shape == (*nx, nt)``;
* derivatives are second-order central differences in the interior and
  second-order one-sided stencils on the boundary, exact for per-axis
  quadratics;
* integrals are tensor-product trapezoidal sums.

Every sampled function is a plain float array, checked by ``finite_array``
where it enters a solver or an analysis, and every helper that needs the
grid takes it first.  The calculus helpers (stencil combinations, time
derivatives, trapezoid sums, the cumulative time integral, traces) take
arrays with the spatial axes leading, so one call serves both a space-time
array and a spatial snapshot, and ``trapezoid_sum`` also takes a face trace
with its tangential axes.  A snapshot is the array ``values[..., j]`` at
time level ``j``.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Prism",
    "Face",
    "OUTER_FACE",
    "Grid",
    "make_grid",
    "sample_field",
    "first_derivative",
    "second_derivative",
    "gradient",
    "grad_sq",
    "sum_of_squares",
    "laplacian",
    "divergence",
    "dt",
    "dtt",
    "trapezoid_sum",
    "cross_section_sum",
    "time_integral_from_t0",
    "trace",
    "data_faces",
    "snap_epsilon",
    "boundary_mask",
    "interior_mask",
    "finite_real",
    "finite_array",
    "RangeGuardError",
]


def finite_real(value) -> bool:
    """A real number within the float range; bools are rejected although
    they are ints.  The comparison is exact, so an int too large for a
    float is rejected too."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


class RangeGuardError(ValueError):
    """A setting would take the weight or a coefficient out of floating-point
    range."""


def finite_array(name: str, values, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a float array, not copied if it is one already: the one
    check of a sampled array (a field, a coefficient, a snapshot or a trace).
    A ValueError reads "<name> has shape <actual>, not <shape>" or "<name>
    must be finite"."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{name} has shape {values.shape}, not {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


@dataclass(frozen=True)
class Prism:
    """Spatial box ``(a, b) x prod_i (-B_i, B_i)`` together with the horizon T.

    Args:
        a: lower bound of the first coordinate, strictly positive.
        b: upper bound of the first coordinate, ``b > a``.
        half_widths: half-widths ``(B_2, ..., B_n)`` of the remaining axes;
            empty for a one-dimensional domain.
        T: final time, strictly positive.

    Raises:
        ValueError: if a bound is not a finite real number, ``a <= 0``,
            ``b <= a``, ``b^2`` overflows, any half-width is non-positive,
            or ``T <= 0``.
    """

    a: float
    b: float
    half_widths: tuple[float, ...]
    T: float

    def __post_init__(self) -> None:
        widths = [(f"half_widths[{i}]", w) for i, w in enumerate(self.half_widths)]
        for name, value in [("a", self.a), ("b", self.b), ("T", self.T)] + widths:
            if not finite_real(value):
                raise ValueError(f"prism {name} must be a finite number, got {value!r}")
        object.__setattr__(self, "half_widths", tuple(float(w) for w in self.half_widths))
        if not self.a > 0.0:
            raise ValueError(f"prism requires a > 0, got a={self.a}")
        if not self.b > self.a:
            raise ValueError(f"prism requires b > a, got a={self.a}, b={self.b}")
        # the weights read x1^2 <= b^2 as a float
        if not finite_real(float(self.b) * float(self.b)):
            raise ValueError(f"prism requires b^2 in floating-point range, got b={self.b}")
        for i, w in enumerate(self.half_widths):
            if not w > 0.0:
                raise ValueError(f"half_widths[{i}] must be positive, got {w}")
        if not self.T > 0.0:
            raise ValueError(f"prism requires T > 0, got T={self.T}")

    @property
    def dim(self) -> int:
        """Spatial dimension ``n``."""
        return 1 + len(self.half_widths)

    def axis_bounds(self, axis: int) -> tuple[float, float]:
        """Return the ``(lo, hi)`` bounds of a spatial axis (0-based)."""
        if axis == 0:
            return (float(self.a), float(self.b))
        return (-self.half_widths[axis - 1], self.half_widths[axis - 1])


@dataclass(frozen=True, order=True)
class Face:
    """One lateral face of the prism: a spatial axis and a side.

    ``Face(0, +1)`` is the face ``{x_1 = b}``, ``Face(0, -1)`` is
    ``{x_1 = a}``, and ``Face(i, s)`` for ``i >= 1`` is ``{x_{i+1} = s B_{i+1}}``.
    The string form follows the 1-based axis labels, e.g. ``"x1+"``.
    """

    axis: int
    side: int

    def __post_init__(self) -> None:
        if self.side not in (-1, 1):
            raise ValueError(f"face side must be +1 or -1, got {self.side}")
        if self.axis < 0:
            raise ValueError(f"face axis must be non-negative, got {self.axis}")

    @property
    def label(self) -> str:
        return f"x{self.axis + 1}{'+' if self.side > 0 else '-'}"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on ``closure(Omega) x [0, T]``.

    Spacings are derived exactly from the point counts,
    ``h_i = (hi - lo) / (nx_i - 1)`` and ``tau = T / (nt - 1)``, so the
    boundary nodes land exactly on the prism faces and ``t = T`` is the last
    time level.  ``nt`` must be odd so the central level ``t0 = T/2`` is a
    node, the node count must fit a float64 array, and every spacing's
    square must be a nonzero double.

    Attributes:
        prism: the underlying geometry.
        nx: points per spatial axis.
        nt: number of time levels.
    """

    prism: Prism
    nx: tuple[int, ...]
    nt: int
    # derived, filled in __post_init__
    h: tuple[float, ...] = dataclass_field(init=False)
    tau: float = dataclass_field(init=False)

    _MIN_POINTS = 5

    def __post_init__(self) -> None:
        try:
            if any(isinstance(m, bool) for m in (*self.nx, self.nt)):
                raise TypeError
            object.__setattr__(self, "nx", tuple(operator.index(m) for m in self.nx))
            object.__setattr__(self, "nt", operator.index(self.nt))
        except TypeError:
            raise ValueError(
                f"grid point counts must be integers, got nx={self.nx!r}, nt={self.nt!r}"
            ) from None
        if len(self.nx) != self.prism.dim:
            raise ValueError(
                f"grid needs {self.prism.dim} spatial counts, got {len(self.nx)}"
            )
        counts = {f"nx[{i}]": m for i, m in enumerate(self.nx)}
        counts["nt"] = self.nt
        for name, m in counts.items():
            # the spacings divide by the count as a float
            if not finite_real(m):
                digits = len(str(abs(m)))
                raise ValueError(
                    f"{name} must be in floating-point range, got a {digits}-digit integer"
                )
            if m < self._MIN_POINTS:
                raise ValueError(f"{name} must be >= {self._MIN_POINTS}, got {m}")
        if self.nt % 2 == 0:
            raise ValueError(
                f"nt must be odd so that t0 = T/2 is on-grid, got nt={self.nt}"
            )
        # numpy counts an array's bytes in an intp
        nodes = math.prod(self.shape)
        if nodes * 8 > np.iinfo(np.intp).max:
            raise ValueError(
                f"grid has a {len(str(nodes))}-digit node count, "
                f"beyond any float64 array"
            )
        spacings = []
        for i, m in enumerate(self.nx):
            lo, hi = self.prism.axis_bounds(i)
            spacings.append((hi - lo) / (m - 1))
        tau = self.prism.T / (self.nt - 1)
        steps = [(f"x{i + 1} spacing h[{i}]", h) for i, h in enumerate(spacings)]
        for name, step in steps + [("time step tau", tau)]:
            # the stencils and the marches divide by the squared spacing
            if not 0.0 < step * step < math.inf:
                raise ValueError(f"{name} = {step:g} squares to {step * step:g} in floating point")
        object.__setattr__(self, "h", tuple(spacings))
        object.__setattr__(self, "tau", tau)

    @property
    def dim(self) -> int:
        return self.prism.dim

    @property
    def shape_space(self) -> tuple[int, ...]:
        return self.nx

    @property
    def shape(self) -> tuple[int, ...]:
        return (*self.nx, self.nt)

    @property
    def index_t0(self) -> int:
        """Index of the central time level ``t0 = T/2``."""
        return (self.nt - 1) // 2

    def axis_coords(self, axis: int) -> np.ndarray:
        lo, hi = self.prism.axis_bounds(axis)
        return np.linspace(lo, hi, self.nx[axis])

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.prism.T, self.nt)

    def space_meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_coords(i) for i in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def spacetime_meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_coords(i) for i in range(self.dim)]
        return tuple(np.meshgrid(*axes, self.times, indexing="ij"))

    def index_of_time(self, t: float) -> int:
        """Index of the grid time level equal to ``t``.

        Raises:
            ValueError: if ``t`` is off-grid (not within 1e-9 max(T, 1) of a
                level).
        """
        tol = 1e-9 * max(self.prism.T, 1.0)
        j = int(round(t / self.tau))
        if j < 0 or j >= self.nt or abs(j * self.tau - t) > tol:
            raise ValueError(f"time {t} is off-grid (tau={self.tau})")
        return j

    def faces(self) -> Iterator[Face]:
        for axis in range(self.dim):
            yield Face(axis, -1)
            yield Face(axis, +1)

    def face_shape(self, face: Face) -> tuple[int, ...]:
        return tuple(m for i, m in enumerate(self.nx) if i != face.axis)

    def trapezoid_weights(self, axis: int) -> np.ndarray:
        """Trapezoidal quadrature weights along a spatial axis."""
        return _trapezoid_weights(self.nx[axis], self.h[axis])

    def time_weights(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Trapezoidal weights over the time levels ``lo..hi`` inclusive.

        Weights for levels outside the window are zero, so the returned
        vector always has length ``nt`` and can be contracted against the
        full time axis.
        """
        if hi is None:
            hi = self.nt - 1
        if hi - lo < 1:
            raise ValueError(f"degenerate time window [{lo}, {hi}]")
        w = np.zeros(self.nt)
        w[lo : hi + 1] = _trapezoid_weights(hi - lo + 1, self.tau)
        return w


# the face x_1 = b: the one face that keeps its Neumann data in the
# incomplete data regime and its boundary term in the restricted functional
OUTER_FACE = Face(axis=0, side=1)


def data_faces(grid: Grid, outer_only: bool) -> list[Face]:
    """The faces that carry boundary data: every lateral face, or the outer
    face alone."""
    return [OUTER_FACE] if outer_only else list(grid.faces())


def make_grid(prism: Prism, nx: Sequence[int] | int, nt: int) -> Grid:
    """Build a grid; scalar ``nx`` is broadcast over all spatial axes."""
    if isinstance(nx, int):
        nx = (nx,) * prism.dim
    return Grid(prism, tuple(nx), nt)


def snap_epsilon(grid: Grid, eps: float) -> tuple[int, float]:
    """Snap ``eps`` to the nearest time level and return ``(index, value)``.

    The time window of the truncated cylinder is ``[eps, T - eps]`` with
    ``0 < eps < T/2``; the snapped index must leave a non-degenerate window
    around ``t0``.
    """
    if not 0.0 < eps < 0.5 * grid.prism.T:
        raise ValueError(f"epsilon must lie in (0, T/2), got {eps}")
    j = int(round(eps / grid.tau))
    j = min(max(j, 1), grid.index_t0 - 1)
    return j, j * grid.tau


def boundary_mask(grid: Grid) -> np.ndarray:
    """Spatial mask of the nodes on the lateral boundary."""
    mask = np.zeros(grid.shape_space, dtype=bool)
    for axis in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = -1
        mask[tuple(sl)] = True
    return mask


def interior_mask(grid: Grid, time_ring: int, eps: float | None) -> np.ndarray:
    """Space-time mask without the lateral boundary and without ``time_ring``
    levels at each end of the time axis; ``eps`` widens the ring to cover
    the levels outside the window ``snap_epsilon`` gives, the one the norms
    integrate over."""
    mask = np.repeat(~boundary_mask(grid)[..., None], grid.nt, axis=-1)
    if eps is not None:
        time_ring = max(time_ring, snap_epsilon(grid, eps)[0])
    mask[..., :time_ring] = False
    mask[..., grid.nt - time_ring :] = False
    return mask


# ---------------------------------------------------------------------------
# sampling


def sample_field(grid: Grid, fn: Callable[..., np.ndarray]) -> np.ndarray:
    """Sample ``fn(x_1, ..., x_n, t)`` on the space-time grid."""
    coords = grid.spacetime_meshgrid()
    return np.broadcast_to(np.asarray(fn(*coords), dtype=float), grid.shape).copy()


# ---------------------------------------------------------------------------
# finite differences


def first_derivative(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Second-order first derivative along one axis of a raw array.

    Central differences in the interior, one-sided three-point stencils at
    the two edge planes; exact for quadratics along the axis.
    """
    v = np.moveaxis(values, axis, 0) if axis else values
    out = np.empty_like(v, dtype=float)
    inner = out[1:-1]
    np.subtract(v[2:], v[:-2], out=inner)
    inner /= 2.0 * spacing
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * spacing)
    return np.moveaxis(out, 0, axis) if axis else out


def second_derivative(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Second-order pure second derivative along one axis of a raw array."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v, dtype=float)
    h2 = spacing * spacing
    inner = out[1:-1]
    np.multiply(v[1:-1], 2.0, out=inner)
    np.subtract(v[2:], inner, out=inner)
    inner += v[:-2]
    inner /= h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return np.moveaxis(out, 0, axis)


def gradient(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Spatial gradient components ``d/dx_1, ..., d/dx_n``."""
    return tuple(first_derivative(values, i, h) for i, h in enumerate(grid.h))


def sum_of_squares(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Sum of the squares of fresh arrays, taken one at a time in the order
    given: each is squared in place and added into the first."""
    arrays = iter(arrays)
    total = next(arrays)
    total *= total
    for d in arrays:
        d *= d
        total += d
    return total


def grad_sq(grid: Grid, values: np.ndarray) -> np.ndarray:
    """``|grad values|^2``: the ``sum_of_squares`` of the gradient
    components, in axis order."""
    return sum_of_squares(gradient(grid, values))


def laplacian(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Sum of the pure second derivatives, in axis order, added in place."""
    out = second_derivative(values, 0, grid.h[0])
    for i in range(1, grid.dim):
        out += second_derivative(values, i, grid.h[i])
    return out


def divergence(grid: Grid, components: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_i d/dx_i components[i]``, one component per spatial axis."""
    if len(components) != grid.dim:
        raise ValueError(
            f"divergence needs {grid.dim} components, got {len(components)}"
        )
    out = first_derivative(components[0], 0, grid.h[0])
    for i in range(1, grid.dim):
        out = out + first_derivative(components[i], i, grid.h[i])
    return out


def dt(grid: Grid, values: np.ndarray) -> np.ndarray:
    """First time derivative of a space-time array."""
    return first_derivative(values, grid.dim, grid.tau)


def dtt(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Second time derivative of a space-time array."""
    return second_derivative(values, grid.dim, grid.tau)


# ---------------------------------------------------------------------------
# quadrature


def _trapezoid_weights(npts: int, spacing: float) -> np.ndarray:
    w = np.full(npts, spacing)
    w[0] = 0.5 * spacing
    w[-1] = 0.5 * spacing
    return w


def trapezoid_sum(
    grid: Grid,
    values: np.ndarray,
    axes: Sequence[int] | None = None,
    time_weights: np.ndarray | None = None,
) -> float:
    """Tensor-product trapezoidal sum of an array.

    The leading axes of ``values`` are contracted in order against the
    weights of the spatial ``axes`` of ``grid`` (all of them by default; a
    face trace passes its tangential axes), then the remaining time axis
    against ``time_weights`` when given.
    """
    out = np.asarray(values, dtype=float)
    for axis in range(grid.dim) if axes is None else axes:
        out = np.tensordot(out, grid.trapezoid_weights(axis), axes=([0], [0]))
    if time_weights is not None:
        # np.dot, not tensordot: the BLAS path of a 1-D tensordot can round
        # differently
        out = np.dot(out, time_weights)
    return float(out)


def cross_section_sum(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Trapezoidal sum of a space-time array over the cross-section axes
    x_2, ..., x_n, leaving an array of shape ``(nx_1, nt)``.

    The axes are contracted from x_n inward, each against its trapezoid
    weights by ``np.matmul``, whose vector-times-stack form contracts the
    last spatial axis left (the one before time) without copying the
    array.  A function of (x_1, t) times ``values`` then integrates as
    ``trapezoid_sum(grid, out * w, axes=(0,), time_weights=...)``, so the
    cross-section work is paid once, not once per weight.  On a 1-D grid
    there is nothing to contract and ``values`` is returned as it is, not
    copied, so those sums are the ones of the full array.
    """
    out = values
    for axis in reversed(range(1, grid.dim)):
        out = np.matmul(grid.trapezoid_weights(axis), out)
    return out


def time_integral_from_t0(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Cumulative trapezoidal integral along the last (time) axis from the
    central time: ``(x, t) -> integral_{t0}^{t} values(x, tau) dtau``
    (negative for t < t0).

    Built in one output buffer: the trapezoid increments are formed and
    accumulated in place behind a zero first level, then the t0 level is
    subtracted, with no field-sized temporary.
    """
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    steps = out[..., 1:]
    np.add(values[..., 1:], values[..., :-1], out=steps)
    steps *= grid.tau
    steps /= 2.0
    np.cumsum(steps, axis=-1, out=steps)
    out -= out[..., grid.index_t0 : grid.index_t0 + 1].copy()
    return out


# ---------------------------------------------------------------------------
# traces


def trace(grid: Grid, values: np.ndarray, kind: str, face: Face) -> np.ndarray:
    """Restrict a space-time array (``"dirichlet"``) or its outward normal
    derivative (``"neumann"``) to one lateral face.

    The trace is a writable array of shape ``(*grid.face_shape(face), nt)``:
    the face's tangential axes in grid order, then time; on a
    one-dimensional domain a face is a point and the shape is ``(nt,)``.
    The normal derivative uses the one-sided three-point stencil from the
    interior, with the sign of the outward normal, so that e.g. for
    ``u = x_1`` the traces on the two ``x_1`` faces are +1 and -1.
    """
    if face.axis >= grid.dim:
        raise ValueError(f"face {face.label} does not exist on a {grid.dim}-d grid")
    v = np.moveaxis(values, face.axis, 0)
    if kind == "dirichlet":
        return np.array(v[-1] if face.side > 0 else v[0])
    if kind != "neumann":
        raise ValueError(f"unknown trace kind {kind!r}")
    h = grid.h[face.axis]
    if face.side > 0:
        return (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return (3.0 * v[0] - 4.0 * v[1] + v[2]) / (2.0 * h)
