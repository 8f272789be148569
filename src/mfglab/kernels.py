"""Interaction kernels coupling the value function to the density.

A kernel is one frozen dataclass, ``Kernel(type, profile, amplitude, n1)``.
``type="separable"`` integrates only over the cross-section,

    (K m)(x, t) = integral_{cross} Ybar(xbar, ybar) m(x_1, ybar, t) dybar,

which degenerates to pointwise multiplication when ``n = 1`` (the empty
cross-section carries measure one).  ``type="causal"`` additionally
integrates causally along the first axis,

    (K m)(x, t) = integral_{cross} integral_{x_1}^{b} Ybar(x, y) m(y, t) dy_1 dybar.

Every kernel is a Kronecker product of per-axis quadrature factors, one
``nx_i x nx_i`` matrix per integrated axis, and is applied one axis at a
time.  Nothing is cached: the factors cost O(sum nx_i^2) to build and hold,
and one application costs O(N sum nx_i) for a field of N samples, against
O(N prod nx_i) time and O((prod nx_i)^2) memory for the dense quadrature
matrix over the flattened grid.  ``apply_kernel`` takes and returns plain
arrays with the spatial axes leading, a snapshot of shape ``nx`` or a
space-time array of shape ``(*nx, nt)``, as ``grid``'s calculus does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, finite_real, trapezoid_sum

__all__ = [
    "Kernel",
    "causal_weights",
    "fubini_swap_residual",
    "apply_kernel",
    "kernel_bound",
]

@dataclass(frozen=True)
class Kernel:
    """Interaction kernel ``amplitude * Ybar``, integrated over the
    cross-section (``type="separable"``) or also causally along the first
    axis (``type="causal"``).

    ``profile`` names ``Ybar``, which depends on the cross coordinates only:
    ``"constant"`` (one) or ``"cosine"`` (the product over cross axes of
    ``cos(pi x_k / 2B_k) cos(pi y_k / 2B_k)``, vanishing on the side
    faces).  ``n1`` is null or a declared bound on the kernel's magnitude.
    """

    type: str
    profile: str = "constant"
    amplitude: float = 1.0
    n1: float | None = None

    def __post_init__(self) -> None:
        if self.type not in {"separable", "causal"}:
            raise ValueError(f"unknown kernel type {self.type!r}")
        if self.profile not in ("constant", "cosine"):
            raise ValueError(f"unknown kernel profile {self.profile!r}")
        if not finite_real(self.amplitude):
            raise ValueError(f"amplitude must be a finite number, got {self.amplitude!r}")
        if self.n1 is not None and not (finite_real(self.n1) and self.n1 >= 0):
            raise ValueError(f"n1 must be null or a finite number >= 0, got {self.n1!r}")


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


def _axis_factors(kernel: Kernel, grid: Grid):
    """Per-axis quadrature factors whose Kronecker product is the kernel.

    Returns ``(scale, factors)``.  ``factors[i]`` is an ``(nx_i, nx_i)``
    matrix with the trapezoid weights of the integration variable folded
    into its columns, or ``None`` where the kernel does not integrate along
    axis ``i``.  The amplitude is folded into the first integrating factor;
    ``scale`` is what is left of it, which differs from one only for the
    one-dimensional separable kernel (nothing integrates and the empty
    cross-section carries measure one).
    """
    scale = kernel.amplitude
    factors = []
    for axis in range(grid.dim):
        n = grid.nx[axis]
        if axis == 0:
            if kernel.type == "separable":
                factors.append(None)
            else:
                factors.append(scale * causal_weights(n, grid.h[0]))
                scale = 1.0
            continue
        if kernel.profile == "constant":
            profile = np.ones((n, n))
        else:
            c = _cosine(grid, axis)
            profile = c[:, None] * c[None, :]
        factors.append(scale * profile * grid.trapezoid_weights(axis)[None, :])
        scale = 1.0
    return scale, factors


def apply_kernel(kernel: Kernel, grid: Grid, values: np.ndarray) -> np.ndarray:
    """Kernel applied to a density with the spatial axes leading and at most
    one trailing (time) axis: a snapshot or a space-time array, contracted
    one axis at a time.

    Each contraction is the one ``np.tensordot(factor, out, axes=(1, axis))``
    makes: the axis is moved to the front, the rest flattened (a transposed
    copy unless the axis already leads), and the same ``np.dot`` is taken,
    so the bits are tensordot's.  The previous stage is dropped before the
    product, so a 2-D causal application of a space-time array holds three
    field-sized arrays at its peak (``values``, the copy and the product),
    not four.
    """
    if values.shape[: grid.dim] != grid.shape_space or values.ndim > grid.dim + 1:
        raise ValueError(
            f"array shape {values.shape} is not the spatial shape {grid.shape_space} "
            f"with at most one trailing axis"
        )
    scale, factors = _axis_factors(kernel, grid)
    out = values
    for axis, factor in enumerate(factors):
        if factor is None:
            continue
        moved = np.moveaxis(out, axis, 0)
        shape = moved.shape
        flat = moved.reshape(shape[0], -1)
        del moved, out  # the previous stage goes before the product
        out = np.moveaxis(np.dot(factor, flat).reshape(shape), 0, axis)
        del flat
    return scale * values if out is values else out


def kernel_bound(kernel: Kernel, grid: Grid) -> float:
    """Sampled sup-norm of the kernel on the grid.

    Every profile is a product of per-axis factors, so the sampled sup is the
    product of the per-axis maxima: one for the constant profile, and the
    squared peak of the bump on each cross axis for the cosine profile.
    When the kernel declares a bound ``n1``, the sample must respect it (the
    declared value is returned in that case).
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
