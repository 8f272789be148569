"""Single-measurement data extraction and the data distance.

The inverse problem observes one solution pair through interior snapshots at
the central time and lateral Cauchy data (Dirichlet and Neumann traces of u
and m) together with their first and second time derivatives.  This module
extracts that data from a solution triple and measures the distance between
two datasets as the maximum over the per-component norm budget.  The two
data regimes are one table, ``BUDGET_NORMS``: the norm of each component a
regime budgets (traces once per s = 0, 1, 2).  Full data budget every
component and keep Neumann traces on every face; incomplete data keep
Neumann traces on the outer face x1 = b alone, budget no Dirichlet traces,
and require the components they do not budget to agree off the outer face.

Derivative traces are computed field-then-trace (differentiate the parent
field in time, then restrict); since restriction and time differencing act
on disjoint axes this equals trace-then-differentiate exactly for s = 1,
while the s = 2 level differs from twice-applied first differences at the
stencil-accuracy level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grid import (
    OUTER_FACE,
    Face,
    Grid,
    data_faces,
    dt,
    dtt,
    finite_array,
    trace,
)
from .mfg import MFGTriple
from .norms import norm, trace_norm

__all__ = [
    "CIPData",
    "DataCompatibilityError",
    "OUTER_FACE",
    "BUDGET_NORMS",
    "extract",
    "measure_delta",
    "budget_lines",
]

# the norm of each component a data regime budgets
BUDGET_NORMS = {
    "full": {"u0": "H1", "m0": "H1", "g0": "H21", "p0": "H21", "g1": "H10", "p1": "H10"},
    "incomplete": {"u0": "H2", "m0": "H1", "g1": "H10", "p1": "H10"},
}


class DataCompatibilityError(ValueError):
    """Two datasets cannot be compared under the requested regime."""


TraceSet = Mapping[Face, tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class CIPData:
    """One measurement: central-time snapshots plus s-differentiated traces.

    ``g0``/``g1`` are Dirichlet/Neumann traces of u, ``p0``/``p1`` of m;
    each maps a face to its (s=0, s=1, s=2) trace family, three finite
    arrays of shape ``(*grid.face_shape(face), nt)`` laid out as
    :func:`mfglab.grid.trace` returns them.  Snapshots and traces are stored
    as the float arrays ``finite_array`` returns, not copied if they are
    ones already.
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
        if self.completeness not in BUDGET_NORMS:
            raise ValueError(
                f"completeness must be {' or '.join(map(repr, BUDGET_NORMS))}"
            )
        g = self.grid
        all_faces = set(g.faces())
        for name, tset in (("g0", self.g0), ("p0", self.p0)):
            if set(tset) != all_faces:
                raise ValueError(f"{name} must cover every face")
        want = set(_neumann_faces(g, self.completeness))
        for name, tset in (("g1", self.g1), ("p1", self.p1)):
            if set(tset) != want:
                raise ValueError(
                    f"{name} must cover exactly {sorted(f.label for f in want)} "
                    f"in {self.completeness} mode"
                )
        for name in ("u0", "m0"):
            object.__setattr__(self, name, finite_array(name, getattr(self, name), g.shape_space))
        for name, tset in self.trace_components().items():
            checked = {}
            for face, fam in tset.items():
                if len(fam) != 3:
                    raise ValueError(f"{name} on face {face.label} must be three traces")
                shape = (*g.face_shape(face), g.nt)
                checked[face] = tuple(
                    finite_array(f"{name} s={s} on face {face.label}", values, shape)
                    for s, values in enumerate(fam)
                )
            object.__setattr__(self, name, checked)

    def trace_components(self) -> dict[str, TraceSet]:
        return {"g0": self.g0, "g1": self.g1, "p0": self.p0, "p1": self.p1}


def _neumann_faces(grid: Grid, completeness: str) -> list[Face]:
    """The faces a regime keeps Neumann data on."""
    return data_faces(grid, completeness == "incomplete")


def extract(triple: MFGTriple, completeness: str) -> CIPData:
    """Measurement data of a solution triple (field-then-trace derivatives)."""
    g = triple.grid
    neumann_faces = _neumann_faces(g, completeness)
    # each field's s = 0, 1, 2 levels, differentiated once for every face
    u = (triple.u, dt(g, triple.u), dtt(g, triple.u))
    m = (triple.m, dt(g, triple.m), dtt(g, triple.m))
    return CIPData(
        grid=g,
        completeness=completeness,
        u0=triple.u[..., g.index_t0].copy(),
        m0=triple.m[..., g.index_t0].copy(),
        g0={f: tuple(trace(g, level, "dirichlet", f) for level in u) for f in g.faces()},
        g1={f: tuple(trace(g, level, "neumann", f) for level in u) for f in neumann_faces},
        p0={f: tuple(trace(g, level, "dirichlet", f) for level in m) for f in g.faces()},
        p1={f: tuple(trace(g, level, "neumann", f) for level in m) for f in neumann_faces},
    )


# ---------------------------------------------------------------------------
# norm budget


def _aggregate(
    grid: Grid, tset_1: TraceSet, tset_2: TraceSet, s: int, kind: str
) -> float:
    total = 0.0
    for face, fam in tset_1.items():
        values = fam[s] - tset_2[face][s]
        total += trace_norm(grid, face, values, kind) ** 2
    return float(np.sqrt(total))


def budget_lines(d1: CIPData, d2: CIPData) -> dict[str, float]:
    """Every norm line of the data budget, evaluated on d1 - d2.

    The regime is ``d1.completeness``; ``BUDGET_NORMS`` names the norm of
    each component it budgets.  A snapshot gives one line, a trace family
    one line per s, summed over the faces it covers.
    """
    g = d1.grid
    lines: dict[str, float] = {}
    for name, kind in BUDGET_NORMS[d1.completeness].items():
        part = getattr(d1, name)
        other = getattr(d2, name)
        if isinstance(part, Mapping):
            for s in range(3):
                lines[f"{name}_s{s}"] = _aggregate(g, part, other, s, kind)
        else:
            lines[name] = norm(g, part - other, kind)
    return lines


def measure_delta(d1: CIPData, d2: CIPData) -> float:
    """Experimental delta: the largest budget line of the difference.

    The regime is the datasets' shared completeness; mixed completeness is
    refused, and so are trace families the regime does not budget that
    differ off the outer face.
    """
    if d1.grid != d2.grid:
        raise DataCompatibilityError("datasets live on different grids")
    if d1.completeness != d2.completeness:
        raise DataCompatibilityError(
            f"cannot compare {d1.completeness} data with {d2.completeness} data"
        )
    budget = BUDGET_NORMS[d1.completeness]
    scale = max(1.0, float(np.max(np.abs(d1.u0))), float(np.max(np.abs(d1.m0))))
    for name, t1 in d1.trace_components().items():
        if name in budget:
            continue
        t2 = getattr(d2, name)
        for face, fam in t1.items():
            if face == OUTER_FACE:
                continue
            for s in range(3):
                gap = float(np.max(np.abs(fam[s] - t2[face][s])))
                if gap > 1e-12 * scale:
                    raise DataCompatibilityError(
                        f"{d1.completeness} mode requires identical Dirichlet data off "
                        f"the outer face; {name} s={s} differs by {gap:.3e} "
                        f"on face {face.label}"
                    )
    lines = budget_lines(d1, d2)
    return max(lines.values())

