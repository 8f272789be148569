"""Discrete cylinder, snapshot, and face norms against closed forms."""

import numpy as np
import pytest

from mfglab.grid import Face, Prism, make_grid, sample_field, trace
from mfglab.norms import norm, trace_norm


@pytest.fixture
def grid():
    return make_grid(Prism(1.0, 2.0, (), 1.0), 33, 65)


class TestFieldNorm:
    def test_constant_l2(self, grid):
        c = sample_field(grid, lambda x, t: 3.0 + 0 * x + 0 * t)
        assert norm(grid, c, "L2") == pytest.approx(3.0, rel=1e-12)

    def test_constant_l2_eps_window(self, grid):
        c = sample_field(grid, lambda x, t: 3.0 + 0 * x + 0 * t)
        assert norm(grid, c, "L2", eps=0.2) == pytest.approx(3.0 * np.sqrt(0.59375), rel=1e-12)

    def test_linear_field_closed_forms(self, grid):
        # u = x on (1,2)x(0,1): |u|^2 = 7/3 up to quadrature error,
        # the only nonzero derivative is u_x = 1
        u = sample_field(grid, lambda x, t: x + 0 * t)
        assert norm(grid, u, "L2") ** 2 == pytest.approx(7.0 / 3, rel=1e-4)
        assert norm(grid, u, "H21") ** 2 == pytest.approx(7.0 / 3 + 1.0, rel=1e-4)
        h21 = norm(grid, u, "H21")
        assert norm(grid, u, "H2") == pytest.approx(h21, rel=1e-12)

    def test_h2_sees_time_couplings(self, grid):
        # u = t^2 has u_t and u_tt but no spatial content
        u = sample_field(grid, lambda x, t: t * t + 0 * x)
        h21_sq = norm(grid, u, "H21") ** 2
        h2_sq = norm(grid, u, "H2") ** 2
        # H2 adds the 4 units of the u_tt term
        assert h2_sq - h21_sq == pytest.approx(4.0, rel=1e-4)

    def test_unknown_kind_raises(self, grid):
        u = sample_field(grid, lambda x, t: x)
        with pytest.raises(ValueError, match="unknown norm kind 'H99'"):
            norm(grid, u, "H99")
        with pytest.raises(ValueError, match="unknown norm kind 'H99'"):
            norm(grid, u[..., 0], "H99")
        with pytest.raises(ValueError, match="unknown norm kind 'H99'"):
            trace_norm(grid, Face(0, 1), trace(grid, u, "dirichlet", Face(0, 1)), "H99")

    def test_wrong_shape_raises(self, grid):
        with pytest.raises(ValueError, match=r"\(33, 64\).*\(33,\).*\(33, 65\)"):
            norm(grid, np.ones((33, 64)), "L2")

    def test_eps_with_snapshot_raises(self, grid):
        with pytest.raises(ValueError, match="snapshot"):
            norm(grid, np.ones(33), "L2", eps=0.2)


class TestSpatialNorm:
    def test_constant(self, grid):
        assert norm(grid, np.full(33, 2.0), "L2") == pytest.approx(2.0, rel=1e-12)

    def test_scales_with_domain_length(self):
        g = make_grid(Prism(1.0, 3.0, (), 1.0), 33, 9)
        assert norm(g, np.ones(33), "L2") == pytest.approx(np.sqrt(2.0), rel=1e-12)


class TestTraceNorms:
    def test_constant_trace_all_kinds(self, grid):
        u = sample_field(grid, lambda x, t: x + 0 * t)
        tr = trace(grid, u, "dirichlet", Face(0, 1))
        for kind in ("L2", "H10", "H21"):
            assert trace_norm(grid, Face(0, 1), tr, kind) == pytest.approx(2.0, rel=1e-12)

    def test_time_variation_enters_h21_only(self, grid):
        u = sample_field(grid, lambda x, t: x * t)
        tr = trace(grid, u, "dirichlet", Face(0, 1))
        l2 = trace_norm(grid, Face(0, 1), tr, "L2")
        h21 = trace_norm(grid, Face(0, 1), tr, "H21")
        # trace is 2t: L2^2 = 4/3, H21^2 adds the 4 units of d/dt = 2
        assert l2**2 == pytest.approx(4.0 / 3, rel=1e-3)
        assert h21**2 == pytest.approx(4.0 / 3 + 4.0, rel=1e-3)


class TestMultiDimensional:
    # tolerance 1e-3 separates the closed forms from the other pair
    # convention, which moves each value by more than a quarter

    def test_mixed_derivative_counted_once_in_2d(self):
        # u = x1 x2 on (1,2)x(-1/2,1/2), T = 1: |u|^2 = 7/36, |grad u|^2 =
        # 1/12 + 7/3 and u_{x1 x2}^2 = 1 once, 65/18 in all
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (33, 33), 9)
        u = sample_field(g, lambda x1, x2, t: x1 * x2 + 0 * t)
        assert norm(g, u, "H21") ** 2 == pytest.approx(65.0 / 18, rel=1e-3)
        assert norm(g, u[..., 0], "H2") ** 2 == pytest.approx(65.0 / 18, rel=1e-3)

    def test_cylinder_counts_each_unordered_mixed_pair_once_in_3d(self):
        # u = x1 x2 x3 on (1,2)x(-1/2,1/2)^2, T = 1: |u|^2 = 7/432, |grad u|^2 =
        # 1/144 + 2 * 7/36, and the mixed pairs x1x2, x1x3, x2x3 give 1/12,
        # 1/12 and 7/3 once each, 629/216 in all
        g = make_grid(Prism(1.0, 2.0, (0.5, 0.5), 1.0), (33, 33, 33), 9)
        u = sample_field(g, lambda x1, x2, x3, t: x1 * x2 * x3 + 0 * t)
        assert norm(g, u, "H21") ** 2 == pytest.approx(629.0 / 216, rel=1e-3)

    def test_trace_counts_mixed_derivative_per_ordered_pair_in_3d(self):
        # trace of u = x1 x2 x3 on x1 = 2 is 2 x2 x3: |.|^2 = 1/36, tangential
        # gradient 24/36, and (d_{x2 x3})^2 = 4 for each ordered pair, 313/36
        g = make_grid(Prism(1.0, 2.0, (0.5, 0.5), 1.0), (17, 17, 17), 9)
        u = sample_field(g, lambda x1, x2, x3, t: x1 * x2 * x3 + 0 * t)
        tr = trace(g, u, "dirichlet", Face(0, 1))
        assert trace_norm(g, Face(0, 1), tr, "H21") ** 2 == pytest.approx(313.0 / 36, rel=1e-3)
