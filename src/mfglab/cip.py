"""Single-measurement data extraction, noise injection, and data distance.

The inverse problem observes one solution pair through interior snapshots at
the central time and lateral Cauchy data (Dirichlet and Neumann traces of u
and m) together with their first and second time derivatives.  This module
extracts that data from a solution triple, perturbs it at a prescribed
level, and measures the distance between two datasets as the maximum over
the per-component norm budget:

  full data        u0, m0 in H1; Dirichlet traces in H2,1 and Neumann
                   traces in H1,0 on every face, s = 0, 1, 2;
  incomplete data  u0 in H2, m0 in H1; Neumann traces only on the outer
                   first-coordinate face, and Dirichlet differences must
                   vanish on every other face.

Derivative traces are computed field-then-trace (differentiate the parent
field in time, then restrict); since restriction and time differencing act
on disjoint axes this equals trace-then-differentiate exactly for s = 1,
while the s = 2 level differs from twice-applied first differences at the
stencil-accuracy level, which is what the ladder check measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grid import (
    Face,
    Grid,
    dt as field_dt,
    dtt as field_dtt,
    finite_real,
    first_derivative,
    snapshot,
    trace,
)
from .mfg import MFGTriple
from .norms import norm_spatial, trace_norm

__all__ = [
    "CIPData",
    "NoiseSpec",
    "DataCompatibilityError",
    "OUTER_FACE",
    "extract",
    "inject_noise",
    "measure_delta",
    "budget_lines",
    "ladder_residual",
]

# the face x_1 = b: the one keeping its Neumann data in the incomplete regime
OUTER_FACE = Face(axis=0, side=1)

_PROFILES = ("smooth-low-mode", "white-per-node")
_N_MODES = 5


class DataCompatibilityError(ValueError):
    """Two datasets cannot be compared under the requested regime."""


@dataclass(frozen=True)
class NoiseSpec:
    delta: float
    seed: int
    profile: str = "smooth-low-mode"

    def __post_init__(self) -> None:
        if not finite_real(self.delta) or self.delta < 0.0:
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta!r}")
        if self.profile not in _PROFILES:
            raise ValueError(f"profile must be one of {_PROFILES}")


TraceSet = Mapping[Face, tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class CIPData:
    """One measurement: central-time snapshots plus s-differentiated traces.

    ``g0``/``g1`` are Dirichlet/Neumann traces of u, ``p0``/``p1`` of m;
    each maps a face to its (s=0, s=1, s=2) trace family, three finite
    arrays of shape ``(*grid.face_shape(face), nt)`` laid out as
    :func:`mfglab.grid.trace` returns them.
    """

    grid: Grid
    completeness: str
    u0: np.ndarray
    m0: np.ndarray
    g0: TraceSet
    g1: TraceSet
    p0: TraceSet
    p1: TraceSet

    def __post_init__(self) -> None:
        if self.completeness not in ("full", "incomplete"):
            raise ValueError("completeness must be 'full' or 'incomplete'")
        g = self.grid
        all_faces = set(g.faces())
        for name, tset in (("g0", self.g0), ("p0", self.p0)):
            if set(tset) != all_faces:
                raise ValueError(f"{name} must cover every face")
        want = all_faces if self.completeness == "full" else {OUTER_FACE}
        for name, tset in (("g1", self.g1), ("p1", self.p1)):
            if set(tset) != want:
                raise ValueError(
                    f"{name} must cover exactly {sorted(f.label for f in want)} "
                    f"in {self.completeness} mode"
                )
        for arr, name in ((self.u0, "u0"), (self.m0, "m0")):
            if np.asarray(arr).shape != g.shape_space:
                raise ValueError(f"{name} must have spatial shape {g.shape_space}")
        for name, tset in self.trace_components().items():
            for face, fam in tset.items():
                shape = (*g.face_shape(face), g.nt)
                if len(fam) != 3 or any(np.shape(a) != shape for a in fam):
                    raise ValueError(
                        f"{name} on face {face.label} must be three traces of shape {shape}"
                    )
                if not all(np.all(np.isfinite(a)) for a in fam):
                    raise ValueError(f"{name} on face {face.label} must be finite")

    def trace_components(self) -> dict[str, TraceSet]:
        return {"g0": self.g0, "g1": self.g1, "p0": self.p0, "p1": self.p1}


def extract(triple: MFGTriple, completeness: str = "full") -> CIPData:
    """Measurement data of a solution triple (field-then-trace derivatives)."""
    g = triple.grid
    t0 = g.prism.T / 2.0
    neumann_faces = list(g.faces()) if completeness == "full" else [OUTER_FACE]
    # each field's s = 0, 1, 2 levels, differentiated once for every face
    u = (triple.u, field_dt(triple.u), field_dtt(triple.u))
    m = (triple.m, field_dt(triple.m), field_dtt(triple.m))
    return CIPData(
        grid=g,
        completeness=completeness,
        u0=snapshot(triple.u, t0),
        m0=snapshot(triple.m, t0),
        g0={f: tuple(trace(level, "dirichlet", f) for level in u) for f in g.faces()},
        g1={f: tuple(trace(level, "neumann", f) for level in u) for f in neumann_faces},
        p0={f: tuple(trace(level, "dirichlet", f) for level in m) for f in g.faces()},
        p1={f: tuple(trace(level, "neumann", f) for level in m) for f in neumann_faces},
    )


def ladder_residual(data: CIPData) -> float:
    """Worst mismatch between the stored s=1 traces and discrete time
    differences of the s=0 traces.

    Extracted data passes exactly (restriction and time differencing act on
    disjoint axes), smooth-noise data to O(tau^2) (discrete difference of
    the noise versus its exact derivative).  The s=2 level is not checked
    this way: twice-composed first differences disagree with the direct
    second difference at O(tau) near the one-sided time-edge stencils, a
    property of the stencils rather than of the data.
    """
    tau = data.grid.tau
    worst = 0.0
    for tset in data.trace_components().values():
        for fam in tset.values():
            d1 = first_derivative(fam[0], fam[0].ndim - 1, tau)
            worst = max(worst, float(np.max(np.abs(d1 - fam[1]))))
    return worst


# ---------------------------------------------------------------------------
# norm budget


def _aggregate(
    grid: Grid, tset_1: TraceSet, tset_2: TraceSet | None, s: int, kind: str
) -> float:
    total = 0.0
    for face, fam in tset_1.items():
        values = fam[s] if tset_2 is None else fam[s] - tset_2[face][s]
        total += trace_norm(grid, face, values, kind) ** 2
    return float(np.sqrt(total))


def budget_lines(d1: CIPData, d2: CIPData | None = None) -> dict[str, float]:
    """Every norm line of the data budget, evaluated on d1 (or d1 - d2).

    The mode is ``d1.completeness``.  Full mode: u0 and m0 in H1, Dirichlet
    traces in H2,1 and Neumann traces in H1,0 over all faces, each trace
    line per s.  Incomplete mode: u0 in H2, m0 in H1, Neumann lines on the
    outer face only, and no Dirichlet lines (those differences are required
    to vanish off the outer face, checked by measure_delta).
    """
    g = d1.grid
    u0 = d1.u0 if d2 is None else d1.u0 - d2.u0
    m0 = d1.m0 if d2 is None else d1.m0 - d2.m0
    lines: dict[str, float] = {}
    if d1.completeness == "full":
        lines["u0"] = norm_spatial(g, u0, "H1")
        lines["m0"] = norm_spatial(g, m0, "H1")
        for s in range(3):
            lines[f"g0_s{s}"] = _aggregate(g, d1.g0, d2.g0 if d2 else None, s, "H21")
            lines[f"p0_s{s}"] = _aggregate(g, d1.p0, d2.p0 if d2 else None, s, "H21")
            lines[f"g1_s{s}"] = _aggregate(g, d1.g1, d2.g1 if d2 else None, s, "H10")
            lines[f"p1_s{s}"] = _aggregate(g, d1.p1, d2.p1 if d2 else None, s, "H10")
    else:
        lines["u0"] = norm_spatial(g, u0, "H2")
        lines["m0"] = norm_spatial(g, m0, "H1")
        for s in range(3):
            lines[f"g1_s{s}"] = _aggregate(g, d1.g1, d2.g1 if d2 else None, s, "H10")
            lines[f"p1_s{s}"] = _aggregate(g, d1.p1, d2.p1 if d2 else None, s, "H10")
    return lines


def measure_delta(d1: CIPData, d2: CIPData) -> float:
    """Experimental delta: the largest budget line of the difference.

    The mode is the datasets' shared completeness; mixed completeness is
    refused.
    """
    if d1.grid != d2.grid:
        raise DataCompatibilityError("datasets live on different grids")
    if d1.completeness != d2.completeness:
        raise DataCompatibilityError(
            f"cannot compare {d1.completeness} data with {d2.completeness} data"
        )
    if d1.completeness == "incomplete":
        scale = max(
            1.0, float(np.max(np.abs(d1.u0))), float(np.max(np.abs(d1.m0)))
        )
        for name, t1, t2 in (("g0", d1.g0, d2.g0), ("p0", d1.p0, d2.p0)):
            for face, fam in t1.items():
                if face == OUTER_FACE:
                    continue
                for s in range(3):
                    gap = float(np.max(np.abs(fam[s] - t2[face][s])))
                    if gap > 1e-12 * scale:
                        raise DataCompatibilityError(
                            f"incomplete mode requires identical Dirichlet data off "
                            f"the outer face; {name} s={s} differs by {gap:.3e} "
                            f"on face {face.label}"
                        )
    lines = budget_lines(d1, d2)
    return max(lines.values())


# ---------------------------------------------------------------------------
# noise injection


def _mode_shape(grid: Grid, axes: tuple[int, ...], j: int) -> np.ndarray:
    """Product of sine modes over the given spatial axes (1.0 if none)."""
    if not axes:
        return np.array(1.0)
    factors = []
    for axis in axes:
        lo, hi = grid.prism.axis_bounds(axis)
        s = (grid.axis_coords(axis) - lo) / (hi - lo)
        factors.append(np.sin(j * np.pi * s))
    out = factors[0]
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out


def _smooth_trace_noise(
    grid: Grid, face: Face, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random low-mode trace noise with exact time derivatives.

    eta(y, t) = sum_j c_j Theta_j(y) cos(j pi t / T); returning the exact
    s = 0, 1, 2 families keeps the ladder consistency of noisy data.
    """
    T = grid.prism.T
    t = grid.times
    tangential = tuple(ax for ax in range(grid.dim) if ax != face.axis)
    shape = (*grid.face_shape(face), grid.nt)
    out = [np.zeros(shape) for _ in range(3)]
    for j in range(1, _N_MODES + 1):
        theta = _mode_shape(grid, tangential, j)
        w = j * np.pi / T
        phi = (np.cos(w * t), -w * np.sin(w * t), -w * w * np.cos(w * t))
        for s in range(3):
            out[s] += coeffs[j - 1] * np.multiply.outer(theta, phi[s]).reshape(shape)
    return tuple(out)


def _smooth_spatial_noise(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    out = np.zeros(grid.shape_space)
    for j in range(1, _N_MODES + 1):
        out += coeffs[j - 1] * _mode_shape(grid, tuple(range(grid.dim)), j).reshape(
            grid.shape_space
        )
    return out


def _scaled_trace_set(
    tset: TraceSet, noise: dict[Face, tuple[np.ndarray, ...]], scale: float
) -> TraceSet:
    return {
        face: tuple(fam[s] + scale * noise[face][s] for s in range(3))
        for face, fam in tset.items()
    }


def inject_noise(data: CIPData, noise: NoiseSpec) -> CIPData:
    """Perturb every measured component, rescaled so the largest budget line
    of the perturbation is 0.95 delta (all lines <= delta, max >= 0.9 delta).

    The smooth-low-mode profile (default) draws a 5-mode trigonometric
    polynomial per component with exact time derivatives, so noisy data
    still satisfies the derivative-ladder invariant; white-per-node draws
    independent values everywhere, which breaks the ladder and makes the
    stronger norms grid-dependent (kept for contrast experiments).
    In incomplete mode Dirichlet components receive no noise, preserving
    the identical-Dirichlet-data hypothesis.
    """
    if noise.delta == 0.0:
        return data
    g = data.grid
    rng = np.random.default_rng(noise.seed)
    smooth = noise.profile == "smooth-low-mode"
    target = 0.95 * noise.delta

    def draw_trace_noise(tset: TraceSet) -> dict[Face, tuple[np.ndarray, ...]]:
        out = {}
        for face, fam in tset.items():
            if smooth:
                out[face] = _smooth_trace_noise(g, face, rng.uniform(-1.0, 1.0, _N_MODES))
            else:
                out[face] = tuple(rng.standard_normal(fam[s].shape) for s in range(3))
        return out

    if smooth:
        nu_u0 = _smooth_spatial_noise(g, rng.uniform(-1.0, 1.0, _N_MODES))
        nu_m0 = _smooth_spatial_noise(g, rng.uniform(-1.0, 1.0, _N_MODES))
    else:
        nu_u0 = rng.standard_normal(g.shape_space)
        nu_m0 = rng.standard_normal(g.shape_space)
    trace_noise = {name: draw_trace_noise(tset) for name, tset in data.trace_components().items()}

    incomplete = data.completeness == "incomplete"
    if incomplete:
        for name in ("g0", "p0"):
            trace_noise[name] = {
                face: tuple(np.zeros_like(a) for a in fam)
                for face, fam in trace_noise[name].items()
            }

    # unit-noise dataset: measure each component's budget lines, then scale
    unit = CIPData(
        grid=g,
        completeness=data.completeness,
        u0=data.u0 + nu_u0,
        m0=data.m0 + nu_m0,
        g0=_scaled_trace_set(data.g0, trace_noise["g0"], 1.0),
        g1=_scaled_trace_set(data.g1, trace_noise["g1"], 1.0),
        p0=_scaled_trace_set(data.p0, trace_noise["p0"], 1.0),
        p1=_scaled_trace_set(data.p1, trace_noise["p1"], 1.0),
    )
    lines = budget_lines(unit, data)

    def component_scale(prefix: str) -> float:
        worst = max(
            (v for k, v in lines.items() if k == prefix or k.startswith(prefix + "_")),
            default=0.0,
        )
        return target / worst if worst > 0.0 else 0.0

    s_u0 = component_scale("u0")
    s_m0 = component_scale("m0")
    scales = {name: component_scale(name) for name in ("g0", "g1", "p0", "p1")}
    return CIPData(
        grid=g,
        completeness=data.completeness,
        u0=data.u0 + s_u0 * nu_u0,
        m0=data.m0 + s_m0 * nu_m0,
        g0=_scaled_trace_set(data.g0, trace_noise["g0"], scales["g0"]),
        g1=_scaled_trace_set(data.g1, trace_noise["g1"], scales["g1"]),
        p0=_scaled_trace_set(data.p0, trace_noise["p0"], scales["p0"]),
        p1=_scaled_trace_set(data.p1, trace_noise["p1"], scales["p1"]),
    )
