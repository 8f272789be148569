"""Interaction kernels coupling the value function to the density.

Two families are supported.  ``SeparableDelta`` integrates only over the
cross-section,

    (K m)(x, t) = integral_{cross} Ybar(xbar, ybar) m(x_1, ybar, t) dybar,

which degenerates to pointwise multiplication when ``n = 1`` (the empty
cross-section carries measure one).  ``HeavisideCausal`` additionally
integrates causally along the first axis,

    (K m)(x, t) = integral_{cross} integral_{x_1}^{b} Ybar(x, y) m(y, t) dy_1 dybar.

Every kernel is a Kronecker product of per-axis quadrature factors, one
``nx_i x nx_i`` matrix per integrated axis, and is applied one axis at a
time.  Nothing is cached: the factors cost O(sum nx_i^2) to build and hold,
and one application costs O(N sum nx_i) for a field of N samples, against
O(N prod nx_i) time and O((prod nx_i)^2) memory for the dense quadrature
matrix over the flattened grid.  ``apply_kernel`` and ``apply_G`` take and
return plain arrays with the spatial axes leading, a snapshot of shape
``nx`` or a space-time array of shape ``(*nx, nt)``, as ``grid``'s calculus
does.

The majorant operator ``G`` replaces the profile by one and the integrand by
its absolute value; it is the object appearing on the right-hand side of the
pointwise differential inequalities for the difference system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .grid import Grid, finite_real, trapezoid_sum

__all__ = [
    "SeparableDelta",
    "HeavisideCausal",
    "Kernel",
    "causal_weights",
    "fubini_swap_residual",
    "apply_kernel",
    "apply_G",
    "kernel_bound",
]


def _check_kernel(kernel: Kernel) -> None:
    if kernel.profile not in ("constant", "cosine"):
        raise ValueError(f"unknown kernel profile {kernel.profile!r}")
    if not finite_real(kernel.amplitude):
        raise ValueError(f"amplitude must be a finite number, got {kernel.amplitude!r}")
    if kernel.n1 is not None and not (finite_real(kernel.n1) and kernel.n1 >= 0):
        raise ValueError(f"n1 must be null or a finite number >= 0, got {kernel.n1!r}")


@dataclass(frozen=True)
class SeparableDelta:
    """Cross-section kernel ``amplitude * Ybar(xbar, ybar)``.

    ``profile`` names ``Ybar``: ``"constant"`` (one) or ``"cosine"`` (the
    product over cross axes of ``cos(pi x_k / 2B_k) cos(pi y_k / 2B_k)``,
    vanishing on the side faces).
    """

    profile: str = "constant"
    amplitude: float = 1.0
    n1: float | None = None

    def __post_init__(self) -> None:
        _check_kernel(self)


@dataclass(frozen=True)
class HeavisideCausal:
    """Causal kernel along the first axis with cross-section profile ``Ybar``.

    ``profile`` takes the same two names as for ``SeparableDelta``; it
    depends on the cross coordinates only.
    """

    profile: str = "constant"
    amplitude: float = 1.0
    n1: float | None = None

    def __post_init__(self) -> None:
        _check_kernel(self)


Kernel = Union[SeparableDelta, HeavisideCausal]


def causal_weights(npts: int, spacing: float) -> np.ndarray:
    """Row ``i`` holds trapezoidal weights for ``integral_{x_i}^{x_end}``.

    Closed-corner convention: the degenerate last row is not zero but keeps
    the corner weight ``spacing/2``.  With this choice the composite weight
    of the pair ``(i, j)`` in the iterated double integral,
    ``w_i * W[i, j]``, is symmetric against the swapped-order composite
    ``w_j * W'[j, i]``, where the flip ``W' = W[::-1, ::-1]`` holds in row
    ``j`` the weights for ``integral_{x_start}^{x_j}``, so the discrete
    order-of-integration swap

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


def fubini_swap_residual(grid: Grid, samples: np.ndarray) -> float:
    """Relative defect of the order-of-integration swap on the first axis.

    ``samples[i, j]`` holds f(x_i, y_j) on the first-axis nodes.  Returns
    |A - B| / max(|A|, |B|) where A integrates rows first and B columns
    first; exact weight symmetry makes this pure roundoff.
    """
    n = grid.nx[0]
    if samples.shape != (n, n):
        raise ValueError(f"samples must be ({n}, {n}), got {samples.shape}")
    Wc = causal_weights(n, grid.h[0])
    Ws = Wc[::-1, ::-1]
    a = trapezoid_sum(grid, np.sum(Wc * samples, axis=1), axes=(0,))
    b = trapezoid_sum(grid, np.sum(Ws * samples.T, axis=1), axes=(0,))
    denom = max(abs(a), abs(b), np.finfo(float).tiny)
    return abs(a - b) / denom


def _cosine(grid: Grid, axis: int) -> np.ndarray:
    """Even cosine bump on a cross axis, vanishing on its two side faces."""
    return np.cos(0.5 * np.pi * grid.axis_coords(axis) / grid.prism.half_widths[axis - 1])


def _axis_factors(kernel: Kernel, grid: Grid, *, majorant: bool = False):
    """Per-axis quadrature factors whose Kronecker product is the kernel.

    Returns ``(scale, factors)``.  ``factors[i]`` is an ``(nx_i, nx_i)``
    matrix with the trapezoid weights of the integration variable folded
    into its columns, or ``None`` where the kernel does not integrate along
    axis ``i``.  The amplitude is folded into the first integrating factor;
    ``scale`` is what is left of it, which differs from one only for the
    one-dimensional ``SeparableDelta`` (nothing integrates and the empty
    cross-section carries measure one).  ``majorant`` gives the factors of
    ``G``: unit profile and unit amplitude.
    """
    scale = 1.0 if majorant else kernel.amplitude
    factors = []
    for axis in range(grid.dim):
        n = grid.nx[axis]
        if axis == 0:
            if isinstance(kernel, SeparableDelta):
                factors.append(None)
            else:
                factors.append(scale * causal_weights(n, grid.h[0]))
                scale = 1.0
            continue
        if majorant or kernel.profile == "constant":
            profile = np.ones((n, n))
        else:
            c = _cosine(grid, axis)
            profile = c[:, None] * c[None, :]
        factors.append(scale * profile * grid.trapezoid_weights(axis)[None, :])
        scale = 1.0
    return scale, factors


def _apply(kernel: Kernel, grid: Grid, values: np.ndarray, *, majorant: bool = False):
    """Apply the kernel (or its majorant) to an array with the spatial axes
    leading and at most one trailing (time) axis, contracting one axis at a
    time."""
    if values.shape[: grid.dim] != grid.shape_space or values.ndim > grid.dim + 1:
        raise ValueError(
            f"array shape {values.shape} is not the spatial shape {grid.shape_space} "
            f"with at most one trailing axis"
        )
    scale, factors = _axis_factors(kernel, grid, majorant=majorant)
    out = values
    for axis, factor in enumerate(factors):
        if factor is not None:
            out = np.moveaxis(np.tensordot(factor, out, axes=(1, axis)), 0, axis)
    return scale * values if out is values else out


def apply_kernel(kernel: Kernel, grid: Grid, values: np.ndarray) -> np.ndarray:
    """Kernel applied to a density: a snapshot or a space-time array."""
    return _apply(kernel, grid, values)


def apply_G(kernel: Kernel, grid: Grid, values: np.ndarray) -> np.ndarray:
    """Majorant operator: unit profile applied to ``|values|``."""
    return _apply(kernel, grid, np.abs(values), majorant=True)


def kernel_bound(kernel: Kernel, grid: Grid) -> float:
    """Sampled sup-norm of the kernel on the grid.

    Every profile is a product of per-axis factors, so the sampled sup is the
    product of the per-axis maxima: one for the constant profile, and the
    squared peak of the bump on each cross axis for the cosine profile.  When the kernel declares a bound ``n1``, the
    sample must respect it (the declared value is returned in that case).
    """
    peak = 1.0
    if kernel.profile == "cosine":
        for axis in range(1, grid.dim):
            c = np.max(np.abs(_cosine(grid, axis)))
            peak = peak * c * c
    sampled = float(abs(kernel.amplitude) * peak)
    if kernel.n1 is not None:
        if sampled > kernel.n1 * (1.0 + 1e-12):
            raise ValueError(
                f"sampled kernel magnitude {sampled} exceeds the declared bound {kernel.n1}"
            )
        return float(kernel.n1)
    return sampled
