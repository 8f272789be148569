"""Discrete Sobolev norms on the cylinder, its spatial slices, and its faces.

All norms are trapezoidal discretizations of the continuous definitions:

* ``L2 / H1 / H2`` on the prism for purely spatial data;
* ``L2``, the parabolic ``H^{2,1}`` (all spatial derivatives up to second
  order plus one time derivative) and the isotropic space-time ``H^2`` on
  the cylinder or on its time-truncated version;
* ``L2 / H^{1,0} / H^{2,1}`` on a lateral face cross time;
* ``L2`` and max over the interior nodes, for residuals.

Face norms evaluate every derivative tangentially on the face in question,
so they are well defined for pure boundary data; this is the reading used
for the data norms of the inverse problem.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (
    Face,
    Grid,
    first_derivative,
    gradient,
    interior_mask,
    second_derivative,
    snap_epsilon,
    trapezoid_sum,
)

__all__ = [
    "weighted_sum",
    "masked_norms",
    "norm_spatial",
    "norm",
    "trace_norm",
]


def weighted_sum(
    grid: Grid,
    values: np.ndarray,
    time_window: tuple[int, int] | None = None,
) -> float:
    """Tensor-product trapezoidal sum of a space-time array.

    ``time_window=(lo, hi)`` restricts the time quadrature to the inclusive
    index range (used for the time-truncated cylinder).
    """
    if time_window is None:
        wt = grid.time_weights()
    else:
        wt = grid.time_weights(*time_window)
    return trapezoid_sum(grid, values, time_weights=wt)


def masked_norms(
    grid: Grid, values: np.ndarray, time_ring: int, eps: float | None
) -> tuple[float, float]:
    """(L2, max) of a space-time array over ``interior_mask(grid, time_ring,
    eps)``: off the lateral boundary and ``time_ring`` levels (or the eps
    window) away from each end of the time axis."""
    masked = np.where(interior_mask(grid, time_ring, eps), values, 0.0)
    l2 = math.sqrt(weighted_sum(grid, masked * masked))
    return l2, float(np.max(np.abs(masked)))


def _time_window(grid: Grid, eps: float | None) -> tuple[int, int] | None:
    if eps is None:
        return None
    j, _ = snap_epsilon(grid, eps)
    return (j, grid.nt - 1 - j)


# ---------------------------------------------------------------------------
# spatial norms


def norm_spatial(grid: Grid, values: np.ndarray, kind: str = "L2") -> float:
    """``L2``, ``H1`` or ``H2`` norm of a spatial array over the prism."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape_space:
        raise ValueError(
            f"spatial shape {values.shape} does not match {grid.shape_space}"
        )
    total = trapezoid_sum(grid, values * values)
    if kind == "L2":
        return float(np.sqrt(total))
    firsts = gradient(grid, values)
    total += sum(trapezoid_sum(grid, g * g) for g in firsts)
    if kind == "H1":
        return float(np.sqrt(total))
    if kind != "H2":
        raise ValueError(f"unknown spatial norm kind {kind!r}")
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            if i == j:
                d2 = second_derivative(values, i, grid.h[i])
            else:
                d2 = first_derivative(firsts[i], j, grid.h[j])
            total += trapezoid_sum(grid, d2 * d2)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# cylinder norms


def norm(grid: Grid, values: np.ndarray, kind: str, *, eps: float | None) -> float:
    """Norm of a space-time array over the cylinder, or over its
    eps-truncation when ``eps`` is given.

    Kinds:
        ``"L2"``: plain weighted L2.
        ``"H21"``: parabolic norm; value, spatial gradient, all unordered
            second spatial derivatives, and one time derivative.
        ``"H2"``: isotropic space-time H2 treating time as one more
            coordinate.
    """
    window = _time_window(grid, eps)
    total = weighted_sum(grid, values * values, window)
    if kind == "L2":
        return float(np.sqrt(total))

    firsts = gradient(grid, values)
    vt = first_derivative(values, grid.dim, grid.tau)
    for gcomp in firsts:
        total += weighted_sum(grid, gcomp * gcomp, window)
    total += weighted_sum(grid, vt * vt, window)
    for i in range(grid.dim):
        for j in range(i, grid.dim):
            if i == j:
                d2 = second_derivative(values, i, grid.h[i])
            else:
                d2 = first_derivative(firsts[i], j, grid.h[j])
            total += weighted_sum(grid, d2 * d2, window)
    if kind == "H21":
        return float(np.sqrt(total))
    if kind != "H2":
        raise ValueError(f"unknown field norm kind {kind!r}")
    # remaining space-time couplings: x_i t and t t
    for i in range(grid.dim):
        dxt = first_derivative(firsts[i], grid.dim, grid.tau)
        total += weighted_sum(grid, dxt * dxt, window)
    vtt = second_derivative(values, grid.dim, grid.tau)
    total += weighted_sum(grid, vtt * vtt, window)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# face norms


def trace_norm(grid: Grid, face: Face, values: np.ndarray, kind: str) -> float:
    """``L2``, ``H^{1,0}`` or ``H^{2,1}`` norm of boundary data on a face.

    ``values`` is a trace as :func:`mfglab.grid.trace` returns it: the face's
    tangential axes first, time last.  Derivatives are tangential (and
    temporal for ``H^{2,1}``), so the norm is computable from the trace
    values alone.  Second tangential derivatives run over ordered axis
    pairs, matching the summation convention of the boundary terms in the
    weighted estimates.
    """
    tangential = tuple(i for i in range(grid.dim) if i != face.axis)
    wt = grid.time_weights()
    total = trapezoid_sum(grid, values * values, tangential, wt)
    if kind == "L2":
        return float(np.sqrt(total))

    firsts = {}
    for pos, axis in enumerate(tangential):
        d = first_derivative(values, pos, grid.h[axis])
        firsts[axis] = (pos, d)
        total += trapezoid_sum(grid, d * d, tangential, wt)
    if kind == "H10":
        return float(np.sqrt(total))
    if kind != "H21":
        raise ValueError(f"unknown trace norm kind {kind!r}")

    vt = first_derivative(values, values.ndim - 1, grid.tau)
    total += trapezoid_sum(grid, vt * vt, tangential, wt)
    for axis_a in tangential:
        pos_a, da = firsts[axis_a]
        for axis_b in tangential:
            pos_b, _ = firsts[axis_b]
            if axis_a == axis_b:
                d2 = second_derivative(values, pos_a, grid.h[axis_a])
            else:
                d2 = first_derivative(da, pos_b, grid.h[axis_b])
            total += trapezoid_sum(grid, d2 * d2, tangential, wt)
    return float(np.sqrt(total))
