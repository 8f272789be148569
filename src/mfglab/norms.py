"""Discrete Sobolev norms on the cylinder, its time levels, and its faces.

Every norm is the square root of a trapezoidal sum of squared derivative
terms, and one core computes them all from one table, ``_TERMS``, which
lists the terms of each kind in summation order:

* ``L2``: the value;
* ``H1`` / ``H10``: the value and the space gradient (``H^{1,0}``);
* ``H21``: the parabolic ``H^{2,1}``: value, space gradient, one time
  derivative and every second space derivative;
* ``H2``: the isotropic space-time ``H^2``: ``H21`` plus the ``x_i t`` and
  ``tt`` derivatives, treating time as one more coordinate.

The time terms drop out for an array without a time axis, so
:func:`norm` takes a snapshot over the prism as well as a space-time array
over the cylinder or its time-truncated version.  :func:`trace_norm`
evaluates every derivative tangentially on the face in question, so face
norms are well defined for pure boundary data; this is the reading used for
the data norms of the inverse problem.  :func:`masked_norms` gives the
``L2`` and max over the interior nodes, for residuals.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations_with_replacement, product
from typing import Callable, Sequence

import numpy as np

from .grid import (
    Face,
    Grid,
    first_derivative,
    interior_mask,
    second_derivative,
    snap_epsilon,
    trapezoid_sum,
)

__all__ = [
    "masked_norms",
    "norm",
    "trace_norm",
]

# kind -> derivative terms in summation order: "v" the value, "x" the space
# gradient, "t" the time derivative, "xx" the second space derivatives,
# "xt" and "tt" the remaining space-time second derivatives
_TERMS = {
    "L2": ("v",),
    "H1": ("v", "x"),
    "H10": ("v", "x"),
    "H21": ("v", "x", "t", "xx"),
    "H2": ("v", "x", "t", "xx", "xt", "tt"),
}
_TIME_TERMS = ("t", "xt", "tt")


def _norm(
    values: np.ndarray,
    spacings: Sequence[float],
    tau: float,
    kind: str,
    quad: Callable[[np.ndarray], float],
    *,
    ordered: bool,
) -> float:
    """Square root of ``quad`` summed over the squared terms of ``kind``.

    The leading axes of ``values`` are space axes with the given
    ``spacings``; one more axis is time, with step ``tau``, and without it
    the time terms are skipped.  The gradient terms are summed as a group,
    every other term is added alone.  Mixed second space derivatives run
    over ordered axis pairs when ``ordered``, else over unordered ones.
    """
    if kind not in _TERMS:
        raise ValueError(f"unknown norm kind {kind!r}; the kinds are {', '.join(_TERMS)}")
    n = len(spacings)
    terms = _TERMS[kind]
    if values.ndim == n:
        terms = tuple(t for t in terms if t not in _TIME_TERMS)
    total = quad(values * values)
    if len(terms) == 1:
        return math.sqrt(total)
    firsts = [first_derivative(values, i, h) for i, h in enumerate(spacings)]
    total += sum(quad(d * d) for d in firsts)
    for term in terms[2:]:
        if term == "t":
            group = [first_derivative(values, n, tau)]
        elif term == "xx":
            if ordered:
                pairs = product(range(n), repeat=2)
            else:
                pairs = combinations_with_replacement(range(n), 2)
            group = (
                second_derivative(values, i, spacings[i])
                if i == j
                else first_derivative(firsts[i], j, spacings[j])
                for i, j in pairs
            )
        elif term == "xt":
            group = (first_derivative(d, n, tau) for d in firsts)
        else:
            group = [second_derivative(values, n, tau)]
        for d in group:
            total += quad(d * d)
    return math.sqrt(total)


def norm(grid: Grid, values: np.ndarray, kind: str, *, eps: float | None = None) -> float:
    """Norm of a snapshot (shape ``grid.shape_space``) over the prism, or of
    a space-time array (shape ``grid.shape``) over the cylinder, or over its
    eps-truncation ``[eps, T - eps]`` when ``eps`` is given.

    Second space derivatives count each unordered pair of axes once.
    """
    if values.shape == grid.shape:
        j = 0 if eps is None else snap_epsilon(grid, eps)[0]
        wt = grid.time_weights(j, grid.nt - 1 - j)
    elif values.shape == grid.shape_space:
        if eps is not None:
            raise ValueError("eps truncates the time axis, which a snapshot does not have")
        wt = None
    else:
        raise ValueError(
            f"shape {values.shape} is neither a snapshot {grid.shape_space} "
            f"nor a space-time array {grid.shape}"
        )
    quad = partial(trapezoid_sum, grid, time_weights=wt)
    return _norm(values, grid.h, grid.tau, kind, quad, ordered=False)


def masked_norms(
    grid: Grid, values: np.ndarray, time_ring: int, eps: float | None
) -> tuple[float, float]:
    """(L2, max) of a space-time array over ``interior_mask(grid, time_ring,
    eps)``: off the lateral boundary and ``time_ring`` levels (or the eps
    window) away from each end of the time axis."""
    masked = np.where(interior_mask(grid, time_ring, eps), values, 0.0)
    return norm(grid, masked, "L2"), float(np.max(np.abs(masked)))


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
    quad = partial(trapezoid_sum, grid, axes=tangential, time_weights=grid.time_weights())
    return _norm(values, [grid.h[i] for i in tangential], grid.tau, kind, quad, ordered=True)
