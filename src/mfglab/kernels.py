"""Interaction kernels coupling the value function to the density.

Three families are supported.  ``GaussianProduct`` is the full convolution
against a tensor-product Gaussian.  ``SeparableDelta`` is the reduced form
that integrates only over the cross-section,

    (K m)(x, t) = integral_{cross} Ybar(xbar, ybar) m(x_1, ybar, t) dybar,

which degenerates to pointwise multiplication when ``n = 1`` (the empty
cross-section carries measure one).  ``HeavisideCausal`` additionally
integrates causally along the first axis,

    (K m)(x, t) = integral_{cross} integral_{x_1}^{b} Ybar(x, y) m(y, t) dy_1 dybar.

Every kernel is realized as a dense quadrature matrix over the flattened
spatial grid (cached per kernel-grid pair), so application to a field is a
single matrix product per time slab.  The cost is O((prod nx)^2) memory;
intended grid sizes keep this in the tens of megabytes.

The majorant operator ``G`` replaces the profile by one and the integrand by
its absolute value; it exists only for the two reduced forms and is the
object appearing on the right-hand side of the pointwise differential
inequalities for the difference system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Union

import numpy as np

from .grid import Field, Grid

__all__ = [
    "GaussianProduct",
    "SeparableDelta",
    "HeavisideCausal",
    "Kernel",
    "causal_weights",
    "swapped_causal_weights",
    "fubini_swap_residual",
    "kernel_matrix",
    "apply_kernel",
    "apply_kernel_spatial",
    "apply_G",
    "kernel_bound",
]

Profile = Union[str, Callable]


@dataclass(frozen=True)
class GaussianProduct:
    """Tensor-product Gaussian kernel with per-axis widths ``sigmas``.

    ``n1`` is an optional declared sup-norm bound; ``kernel_bound`` checks
    the sampled magnitude against it.
    """

    sigmas: tuple[float, ...]
    amplitude: float = 1.0
    n1: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        for s in self.sigmas:
            if not s > 0.0:
                raise ValueError(f"gaussian widths must be positive, got {s}")


@dataclass(frozen=True)
class SeparableDelta:
    """Cross-section kernel; the profile takes cross coordinates only."""

    profile: Profile = "constant"
    amplitude: float = 1.0
    n1: float | None = None


@dataclass(frozen=True)
class HeavisideCausal:
    """Causal kernel along the first axis; the profile takes full coordinates."""

    profile: Profile = "constant"
    amplitude: float = 1.0
    n1: float | None = None


Kernel = Union[GaussianProduct, SeparableDelta, HeavisideCausal]


def _resolve_profile(kernel: Kernel, grid: Grid) -> Callable:
    """Return ``fn(xs, ys)`` acting on tuples of broadcast coordinate arrays."""
    profile = kernel.profile  # type: ignore[union-attr]
    if callable(profile):
        return profile
    skip = 1 if isinstance(kernel, HeavisideCausal) else 0
    widths = grid.prism.half_widths
    if profile == "constant":
        return lambda xs, ys: 1.0
    if profile == "cosine":
        # even cosine bump over each cross axis, vanishing on the side faces
        def fn(xs, ys):
            out = 1.0
            for k, w in enumerate(widths):
                out = out * np.cos(0.5 * np.pi * xs[skip + k] / w)
                out = out * np.cos(0.5 * np.pi * ys[skip + k] / w)
            return out

        return fn
    raise ValueError(f"unknown kernel profile {profile!r}")


def causal_weights(npts: int, spacing: float) -> np.ndarray:
    """Row ``i`` holds trapezoidal weights for ``integral_{x_i}^{x_end}``.

    Closed-corner convention: the degenerate last row is not zero but keeps
    the corner weight ``spacing/2``.  With this choice the composite weight
    of the pair ``(i, j)`` in the iterated double integral,
    ``w_i * W[i, j]``, is symmetric against the swapped-order composite
    ``w_j * W'[j, i]``, so the discrete order-of-integration swap

        sum_i w_i (sum_{j>=i} W[i,j] f[i,j]) = sum_j w_j (sum_{i<=j} W'[j,i] f[i,j])

    holds to machine roundoff rather than to O(h^2).  The price is an O(h)
    closure value assigned at the single plane where the interval is empty;
    it enters integrated quantities at O(h^2) and is never read by the
    solvers there (that plane carries boundary conditions).
    """
    W = np.zeros((npts, npts))
    for i in range(npts):
        W[i, i:] = spacing
        W[i, i] = 0.5 * spacing
        W[i, -1] = 0.5 * spacing
    return W


def swapped_causal_weights(npts: int, spacing: float) -> np.ndarray:
    """Row ``j`` holds trapezoidal weights for ``integral_{x_start}^{x_j}``.

    Same closed-corner convention as ``causal_weights``; the two are exact
    adjoints of each other under the full-interval trapezoid rule.
    """
    W = np.zeros((npts, npts))
    for j in range(npts):
        W[j, : j + 1] = spacing
        W[j, j] = 0.5 * spacing
        W[j, 0] = 0.5 * spacing
    return W


def fubini_swap_residual(grid: Grid, samples: np.ndarray) -> float:
    """Relative defect of the order-of-integration swap on the first axis.

    ``samples[i, j]`` holds f(x_i, y_j) on the first-axis nodes.  Returns
    |A - B| / max(|A|, |B|) where A integrates rows first and B columns
    first; exact weight symmetry makes this pure roundoff.
    """
    n = grid.nx[0]
    if samples.shape != (n, n):
        raise ValueError(f"samples must be ({n}, {n}), got {samples.shape}")
    w = grid.trapezoid_weights(0)
    Wc = causal_weights(n, grid.h[0])
    Ws = swapped_causal_weights(n, grid.h[0])
    a = float(w @ np.sum(Wc * samples, axis=1))
    b = float(w @ np.sum(Ws * samples.T, axis=1))
    denom = max(abs(a), abs(b), np.finfo(float).tiny)
    return abs(a - b) / denom


def _cross_flat(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Flattened cross-section coordinates (Nc, n-1) and weights (Nc,)."""
    if grid.dim == 1:
        return np.zeros((1, 0)), np.ones(1)
    axes = [grid.axis_coords(i) for i in range(1, grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    w = reduce(np.multiply.outer, [grid.trapezoid_weights(i) for i in range(1, grid.dim)])
    return coords, np.asarray(w).ravel()


def _space_flat(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Flattened full spatial coordinates (Ns, n) and weights (Ns,)."""
    mesh = grid.space_meshgrid()
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    w = reduce(np.multiply.outer, [grid.trapezoid_weights(i) for i in range(grid.dim)])
    return coords, np.asarray(w).ravel()


def _profile_matrix(fn: Callable, xcoords: np.ndarray, ycoords: np.ndarray) -> np.ndarray:
    xs = tuple(xcoords[:, k][:, None] for k in range(xcoords.shape[1]))
    ys = tuple(ycoords[:, k][None, :] for k in range(ycoords.shape[1]))
    out = fn(xs, ys)
    return np.broadcast_to(np.asarray(out, dtype=float), (xcoords.shape[0], ycoords.shape[0]))


@lru_cache(maxsize=8)
def kernel_matrix(kernel: Kernel, grid: Grid) -> np.ndarray:
    """Dense quadrature matrix of the kernel over the flattened spatial grid.

    For ``SeparableDelta`` the matrix acts on the flattened cross-section
    (shape ``(Nc, Nc)``); for the other forms it acts on the full flattened
    space (shape ``(Ns, Ns)``).
    """
    if isinstance(kernel, GaussianProduct):
        if len(kernel.sigmas) != grid.dim:
            raise ValueError(
                f"gaussian kernel needs {grid.dim} widths, got {len(kernel.sigmas)}"
            )
        factors = []
        for axis, sigma in enumerate(kernel.sigmas):
            x = grid.axis_coords(axis)
            factors.append(np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * sigma**2)))
        M = reduce(np.kron, factors)
        _, wflat = _space_flat(grid)
        out = kernel.amplitude * M * wflat[None, :]
    elif isinstance(kernel, SeparableDelta):
        coords, wbar = _cross_flat(grid)
        fn = _resolve_profile(kernel, grid)
        Ybar = _profile_matrix(fn, coords, coords)
        out = kernel.amplitude * Ybar * wbar[None, :]
    elif isinstance(kernel, HeavisideCausal):
        xcoords, _ = _space_flat(grid)
        _, wbar = _cross_flat(grid)
        nc = wbar.size
        fn = _resolve_profile(kernel, grid)
        Ybar = _profile_matrix(fn, xcoords, xcoords)
        Wc = causal_weights(grid.nx[0], grid.h[0])
        Wfull = np.kron(Wc, np.tile(wbar, (nc, 1)))
        out = kernel.amplitude * Ybar * Wfull
    else:
        raise TypeError(f"unknown kernel type {type(kernel).__name__}")
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _g_matrix(kernel: Kernel, grid: Grid) -> np.ndarray:
    """Quadrature matrix of the majorant operator (profile replaced by one)."""
    if isinstance(kernel, GaussianProduct):
        raise ValueError("the majorant operator is defined only for the reduced kernel forms")
    _, wbar = _cross_flat(grid)
    nc = wbar.size
    if isinstance(kernel, SeparableDelta):
        out = np.tile(wbar, (nc, 1))
    else:
        Wc = causal_weights(grid.nx[0], grid.h[0])
        out = np.kron(Wc, np.tile(wbar, (nc, 1)))
    out.setflags(write=False)
    return out


def _apply_matrix(kernel: Kernel, grid: Grid, values: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Apply a kernel-shaped matrix to an array with spatial axes leading."""
    trailing = values.shape[grid.dim :]
    if isinstance(kernel, SeparableDelta):
        nc = M.shape[0]
        flat = values.reshape(grid.nx[0], nc, -1)
        out = np.einsum("pq,iqt->ipt", M, flat)
    else:
        flat = values.reshape(-1, int(np.prod(trailing)) if trailing else 1)
        out = M @ flat
    return out.reshape(values.shape)


def apply_kernel(kernel: Kernel, m: Field, t_index: int | None = None):
    """Kernel applied to a density field.

    With ``t_index`` given, returns the spatial array for that one time
    level; otherwise returns the full space-time ``Field``.
    """
    g = m.grid
    M = kernel_matrix(kernel, g)
    if t_index is not None:
        return _apply_matrix(kernel, g, np.ascontiguousarray(m.values[..., t_index]), M)
    return Field(g, _apply_matrix(kernel, g, m.values, M), _copy=False)


def apply_kernel_spatial(kernel: Kernel, grid: Grid, values: np.ndarray) -> np.ndarray:
    """Kernel applied to a single spatial array."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape_space:
        raise ValueError(f"spatial shape {values.shape} does not match {grid.shape_space}")
    M = kernel_matrix(kernel, grid)
    return _apply_matrix(kernel, grid, values, M)


def apply_G(kernel: Kernel, q: Field) -> Field:
    """Majorant operator: unit profile applied to ``|q|``."""
    g = q.grid
    M = _g_matrix(kernel, g)
    return Field(g, _apply_matrix(kernel, g, np.abs(q.values), M), _copy=False)


def kernel_bound(kernel: Kernel, grid: Grid) -> float:
    """Sampled sup-norm of the kernel on the grid.

    When the kernel declares a bound ``n1``, the sample must respect it
    (the declared value is returned in that case).
    """
    if isinstance(kernel, GaussianProduct):
        # sup attained on the sampled diagonal x = y
        sampled = abs(kernel.amplitude)
    else:
        if isinstance(kernel, SeparableDelta):
            coords, _ = _cross_flat(grid)
        else:
            coords, _ = _space_flat(grid)
        fn = _resolve_profile(kernel, grid)
        vals = _profile_matrix(fn, coords, coords)
        sampled = float(abs(kernel.amplitude) * np.max(np.abs(vals)))
    if kernel.n1 is not None:
        if sampled > kernel.n1 * (1.0 + 1e-12):
            raise ValueError(
                f"sampled kernel magnitude {sampled} exceeds the declared bound {kernel.n1}"
            )
        return float(kernel.n1)
    return sampled
