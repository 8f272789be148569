"""Shared fixtures: the manufactured benchmark problem at several resolutions.

The expensive objects (Picard-solved coefficient pairs) are built once per
session and cached by (nx, nt, scale), so refinement studies and the
acceptance checks share work.
"""

import contextlib

import numpy as np
import pytest

from mfglab import mfg
from mfglab.grid import Prism, make_grid
from mfglab.kernels import Kernel
from mfglab.mfg import (
    ClosedForm,
    ProblemSpec,
    bump_form,
    manufacture_triple,
    solve_mfg_members,
    steady_density,
)
from mfglab.stability import form_difference


PRISM = Prism(1.0, 2.0, (), 1.0)
KERNEL = Kernel("separable", amplitude=0.4, n1=1)


@pytest.fixture(scope="session")
def prism():
    return PRISM


@pytest.fixture(scope="session")
def kernel():
    return KERNEL


@contextlib.contextmanager
def mixing_window(length: int):
    """Solve with ``length`` (0 or 1) past iterates in the coupling
    iteration's Anderson window; 0 is the damped Picard step on which the
    frozen numbers of several tests were recorded."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mfg, "_MIXING_WINDOW", length)
        yield


@pytest.fixture
def damped():
    """The damped Picard step (an empty mixing window) for one test."""
    with mixing_window(0):
        yield


def perturbation(grid) -> np.ndarray:
    """Coefficient bump vanishing to second order at both walls."""
    x = grid.axis_coords(0)
    return np.sin(np.pi * (x - grid.prism.a)) ** 2


def quadratic_form() -> ClosedForm:
    """u = x_1^2 + t; gradient bounded away from zero for a > 0."""
    return ClosedForm(
        fn=lambda *c: c[0] ** 2 + c[-1],
        d_t=lambda *c: np.ones(np.broadcast(*c).shape),
        grad_sq=lambda *c: (2.0 * c[0]) ** 2,
        lap=lambda *c: 2.0 * np.ones(np.broadcast(*c).shape),
    )


def build_problem(nx: int, nt: int):
    """Manufactured value/density/coefficient triple and its closing source."""
    g = make_grid(PRISM, nx, nt)
    triple, f = manufacture_triple(
        g, KERNEL, np.ones(g.shape_space), bump_form(PRISM, amplitude=0.3), steady_density(g)
    )
    spec = ProblemSpec(g, KERNEL, f, triple.u, triple.m)
    return g, triple, f, spec


@pytest.fixture(scope="session")
def make_pair():
    """Factory for Picard-solved pairs sharing one data specification.

    The two coefficients are solved as one lockstep group, bitwise as if
    each were solved alone.  Both solves use the same boundary, terminal,
    and initial data, so the lateral Dirichlet traces of the two solutions
    agree exactly and only the coefficient difference drives the field
    differences.
    """
    cache: dict = {}

    def build(nx: int, nt: int, scale: float = 0.1):
        key = (nx, nt, scale)
        if key not in cache:
            g, triple, f, spec = build_problem(nx, nt)
            k1 = np.ones(g.shape_space)
            k2 = k1 + scale * perturbation(g)
            with mixing_window(0):
                t1, t2 = solve_mfg_members(
                    spec, [k1, k2], damping=0.5, max_iter=80, tol=1e-10
                )
            for outcome in (t1, t2):
                if isinstance(outcome, Exception):
                    raise outcome
            cache[key] = {
                "grid": g,
                "f": f,
                "spec": spec,
                "k1": k1,
                "k2": k2,
                "t1": t1,
                "t2": t2,
            }
        return cache[key]

    return build


@pytest.fixture(scope="session")
def make_pack(make_pair):
    """Difference pack of a solved pair."""
    cache: dict = {}

    def build(nx: int, nt: int, scale: float = 0.1):
        key = (nx, nt, scale)
        if key not in cache:
            pair = make_pair(nx, nt, scale)
            cache[key] = form_difference(pair["t1"], pair["t2"])
        return cache[key]

    return build


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])
