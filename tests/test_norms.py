"""Discrete cylinder, snapshot, and face norms against closed forms."""

import numpy as np
import pytest

from mfglab.grid import Face, Prism, make_grid, sample_field, trace
from mfglab.norms import norm, norm_spatial, trace_norm, weighted_sum


@pytest.fixture
def grid():
    return make_grid(Prism(1.0, 2.0, (), 1.0), 33, 65)


class TestWeightedSum:
    def test_constant_integrates_to_measure(self, grid):
        assert weighted_sum(grid, np.ones(grid.shape)) == pytest.approx(1.0)

    def test_window_restricts_time(self, grid):
        # eps = 0.2 snaps to 13 levels of tau = 1/64 on each end
        full = np.ones(grid.shape)
        assert weighted_sum(grid, full, (13, 51)) == pytest.approx(38.0 / 64)


class TestFieldNorm:
    def test_constant_l2(self, grid):
        c = sample_field(grid, lambda x, t: 3.0 + 0 * x + 0 * t)
        assert norm(c) == pytest.approx(3.0, rel=1e-12)

    def test_constant_l2_eps_window(self, grid):
        c = sample_field(grid, lambda x, t: 3.0 + 0 * x + 0 * t)
        assert norm(c, eps=0.2) == pytest.approx(3.0 * np.sqrt(0.59375), rel=1e-12)

    def test_linear_field_closed_forms(self, grid):
        # u = x on (1,2)x(0,1): |u|^2 = 7/3 up to quadrature error,
        # the only nonzero derivative is u_x = 1
        u = sample_field(grid, lambda x, t: x + 0 * t)
        assert norm(u) ** 2 == pytest.approx(7.0 / 3, rel=1e-4)
        assert norm(u, "H21") ** 2 == pytest.approx(7.0 / 3 + 1.0, rel=1e-4)
        assert norm(u, "H2") == pytest.approx(norm(u, "H21"), rel=1e-12)

    def test_h2_sees_time_couplings(self, grid):
        # u = t^2 has u_t and u_tt but no spatial content
        u = sample_field(grid, lambda x, t: t * t + 0 * x)
        h21_sq = norm(u, "H21") ** 2
        h2_sq = norm(u, "H2") ** 2
        # H2 adds the 4 units of the u_tt term
        assert h2_sq - h21_sq == pytest.approx(4.0, rel=1e-4)

    def test_unknown_kind_raises(self, grid):
        u = sample_field(grid, lambda x, t: x)
        with pytest.raises(ValueError, match="unknown field norm kind"):
            norm(u, "H99")


class TestSpatialNorm:
    def test_constant(self, grid):
        assert norm_spatial(grid, np.full(33, 2.0)) == pytest.approx(2.0, rel=1e-12)

    def test_scales_with_domain_length(self):
        g = make_grid(Prism(1.0, 3.0, (), 1.0), 33, 9)
        assert norm_spatial(g, np.ones(33)) == pytest.approx(np.sqrt(2.0), rel=1e-12)


class TestTraceNorms:
    def test_constant_trace_all_kinds(self, grid):
        u = sample_field(grid, lambda x, t: x + 0 * t)
        tr = trace(u, "dirichlet", Face(0, 1))
        for kind in ("L2", "H10", "H21"):
            assert trace_norm(grid, Face(0, 1), tr, kind) == pytest.approx(2.0, rel=1e-12)

    def test_time_variation_enters_h21_only(self, grid):
        u = sample_field(grid, lambda x, t: x * t)
        tr = trace(u, "dirichlet", Face(0, 1))
        l2 = trace_norm(grid, Face(0, 1), tr, "L2")
        h21 = trace_norm(grid, Face(0, 1), tr, "H21")
        # trace is 2t: L2^2 = 4/3, H21^2 adds the 4 units of d/dt = 2
        assert l2**2 == pytest.approx(4.0 / 3, rel=1e-3)
        assert h21**2 == pytest.approx(4.0 / 3 + 4.0, rel=1e-3)
