"""Geometry, fields, difference stencils, and boundary traces."""

import numpy as np
import pytest

from mfglab.grid import (
    Face,
    Prism,
    divergence,
    dt,
    dtt,
    first_derivative,
    gradient,
    laplacian,
    make_grid,
    mixed_xixj,
    sample_field,
    second_derivative,
    snap_epsilon,
    trace,
)


@pytest.fixture
def grid():
    return make_grid(Prism(1.0, 2.0, (), 1.0), 33, 65)


class TestPrism:
    def test_defaults_define_unit_slab(self):
        p = Prism(1.0, 2.0, (), 1.0)
        assert p.dim == 1
        assert p.axis_bounds(0) == (1.0, 2.0)

    def test_cross_axes(self):
        p = Prism(1.0, 2.0, (0.5, 0.25), 1.0)
        assert p.dim == 3
        assert p.axis_bounds(1) == (-0.5, 0.5)
        assert p.axis_bounds(2) == (-0.25, 0.25)
        # integer bounds are real numbers too
        assert Prism(1, 2, (1,), 1).axis_bounds(1) == (-1.0, 1.0)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((2.0, 1.0, (), 1.0), "b > a"),
            ((-1.0, 2.0, (), 1.0), "a > 0"),
            ((1.0, 2.0, (), 0.0), "T > 0"),
            ((1.0, 2.0, (0.0,), 1.0), "half_widths"),
            ((1.0, 2.0, (), float("inf")), "T must be a finite number"),
            ((1.0, 2.0, ("0.5",), 1.0), r"half_widths\[0\] must be a finite number"),
            ((True, 2.0, (), 1.0), "a must be a finite number"),
        ],
    )
    def test_rejects_bad_geometry(self, args, match):
        with pytest.raises(ValueError, match=match):
            Prism(*args)


class TestFace:
    def test_label_parse_round_trip(self):
        assert Face(0, 1).label == "x1+"
        assert str(Face(0, -1)) == "x1-"

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            Face(0, 2)


class TestGrid:
    def test_shapes_and_spacings(self, grid):
        assert grid.shape_space == (33,)
        assert grid.shape == (33, 65)
        assert grid.h == (pytest.approx(1.0 / 32),)
        assert grid.tau == pytest.approx(1.0 / 64)
        x = grid.axis_coords(0)
        assert x[0] == 1.0 and x[-1] == 2.0
        t = grid.times
        assert t[0] == 0.0 and t[-1] == 1.0

    def test_central_time_index_is_exact(self, grid):
        # even nt-1 keeps T/2 on the grid
        assert grid.times[grid.index_t0] == 0.5

    def test_index_of_time(self, grid):
        assert grid.index_of_time(0.25) == 16
        with pytest.raises(ValueError):
            grid.index_of_time(0.3)

    def test_snap_epsilon_rounds_up(self, grid):
        k, eps = snap_epsilon(grid, 0.2)
        assert k == 13
        assert eps == pytest.approx(13.0 / 64)
        assert eps >= 0.2

    def test_faces_1d(self, grid):
        assert [f.label for f in grid.faces()] == ["x1-", "x1+"]

    def test_faces_2d(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 7), 17)
        assert [f.label for f in g.faces()] == ["x1-", "x1+", "x2-", "x2+"]
        assert g.shape == (9, 7, 17)

    def test_trapezoid_weights_integrate_one(self, grid):
        assert grid.trapezoid_weights(0).sum() == pytest.approx(1.0)

    def test_time_weights_window(self, grid):
        assert grid.time_weights().sum() == pytest.approx(1.0)
        assert grid.time_weights(13, 52).sum() == pytest.approx(39.0 / 64)

    def test_rejects_tiny_axis(self):
        with pytest.raises(ValueError, match="nx"):
            make_grid(Prism(1.0, 2.0, (), 1.0), 2, 65)

    @pytest.mark.parametrize(
        "nx, nt",
        [((17.9,), 33), (17, 33.0), (("17",), 33), ((True,), 33), (17, True)],
    )
    def test_point_counts_must_be_integers(self, nx, nt):
        # no count is truncated or passed on as a float
        with pytest.raises(ValueError, match="grid point counts must be integers"):
            make_grid(Prism(1.0, 2.0, (), 1.0), nx, nt)


class TestField:
    def test_arithmetic(self, grid):
        u = sample_field(grid, lambda x, t: x + t)
        v = u + u * 0.5
        np.testing.assert_allclose(v.values, 1.5 * u.values)
        np.testing.assert_allclose((-u).values, -u.values)
        np.testing.assert_allclose((u - u).values, 0.0)

    def test_grid_mismatch_raises(self, grid):
        other = make_grid(Prism(1.0, 2.0, (), 1.0), 17, 65)
        u = sample_field(grid, lambda x, t: x)
        v = sample_field(other, lambda x, t: x)
        with pytest.raises(ValueError, match="different grids"):
            u + v

    def test_values_are_read_only(self, grid):
        u = sample_field(grid, lambda x, t: x)
        with pytest.raises((ValueError, AttributeError)):
            u.values[0, 0] = 99.0


class TestStencils:
    """Second-order stencils are exact on quadratics, ends included."""

    def test_first_derivative_exact_on_quadratic(self, grid):
        u = sample_field(grid, lambda x, t: x**2 + 3 * t**2)
        x = grid.axis_coords(0)[:, None]
        np.testing.assert_allclose(
            first_derivative(u.values, 0, grid.h[0]), 2 * x + 0 * u.values, atol=1e-12
        )
        np.testing.assert_allclose(
            first_derivative(u.values, 1, grid.tau),
            6 * grid.times[None, :] + 0 * u.values,
            atol=1e-12,
        )

    def test_second_derivative_exact_on_quadratic(self, grid):
        u = sample_field(grid, lambda x, t: x**2 + 3 * t**2)
        np.testing.assert_allclose(second_derivative(u.values, 0, grid.h[0]), 2.0, atol=1e-10)
        np.testing.assert_allclose(dtt(u).values, 6.0, atol=1e-10)

    def test_dt_exact_on_quadratic(self, grid):
        u = sample_field(grid, lambda x, t: x * x + 3 * t * t)
        np.testing.assert_allclose(
            dt(u).values, 6 * grid.times[None, :] + 0 * u.values, atol=1e-12
        )

    def test_gradient_laplacian(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (17, 17), 9)
        u = sample_field(g, lambda x, y, t: x**2 + 2 * y**2 + 0 * t)
        gx, gy = gradient(g, u.values)
        xs, ys = g.space_meshgrid()
        np.testing.assert_allclose(gx, (2 * xs)[..., None] + 0 * u.values, atol=1e-10)
        np.testing.assert_allclose(gy, (4 * ys)[..., None] + 0 * u.values, atol=1e-10)
        np.testing.assert_allclose(laplacian(g, u.values), 6.0, atol=1e-9)

    def test_mixed_derivative_symmetric(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (17, 17), 9)
        u = sample_field(g, lambda x, y, t: np.sin(x) * np.cos(y) + 0 * t)
        d01 = mixed_xixj(g, u.values, 0, 1)
        d10 = mixed_xixj(g, u.values, 1, 0)
        np.testing.assert_allclose(d01, d10, atol=1e-12)

    def test_divergence_matches_component_sum(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (17, 17), 9)
        u = sample_field(g, lambda x, y, t: x * y + 0 * t)
        v = sample_field(g, lambda x, y, t: x - y + 0 * t)
        div = divergence(g, (u.values, v.values))
        manual = first_derivative(u.values, 0, g.h[0]) + first_derivative(v.values, 1, g.h[1])
        np.testing.assert_allclose(div, manual)


class TestTrace:
    def test_dirichlet_restriction(self, grid):
        u = sample_field(grid, lambda x, t: x + 0 * t)
        assert trace(u, "dirichlet", Face(0, -1)).flat[0] == 1.0
        assert trace(u, "dirichlet", Face(0, 1)).flat[0] == 2.0

    def test_neumann_is_outward(self, grid):
        # du/dn of u = x: -1 on the left wall, +1 on the right wall
        u = sample_field(grid, lambda x, t: x + 0 * t)
        np.testing.assert_allclose(trace(u, "neumann", Face(0, -1)), -1.0, atol=1e-12)
        np.testing.assert_allclose(trace(u, "neumann", Face(0, 1)), 1.0, atol=1e-12)

    def test_trace_shape_2d(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 7), 17)
        u = sample_field(g, lambda x, y, t: x * y * t)
        b = trace(u, "dirichlet", Face(1, -1))
        # the tangential x1 axis first, time last
        assert b.shape == (9, 17)
        assert np.array_equal(b, u.values[:, 0, :])
