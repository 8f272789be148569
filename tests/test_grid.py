"""Geometry, fields, difference stencils, and boundary traces."""

import numpy as np
import pytest

from mfglab.grid import (
    Face,
    Prism,
    cross_section_sum,
    divergence,
    dt,
    dtt,
    first_derivative,
    gradient,
    interior_mask,
    laplacian,
    make_grid,
    sample_field,
    second_derivative,
    snap_epsilon,
    time_integral_from_t0,
    trace,
    trapezoid_sum,
)


@pytest.fixture
def grid():
    return make_grid(Prism(1.0, 2.0, (), 1.0), 33, 65)


class TestPrism:
    def test_unit_slab_is_one_dimensional(self):
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
            ((1.0, 1e160, (), 1.0), r"b\^2 in floating-point range, got b=1e\+160"),
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

    def test_interior_mask_keeps_the_epsilon_window(self):
        # the masks keep the levels the eps-trimmed norms integrate over; at
        # nt = 257, eps / tau = 51.2 lies under the half-way mark
        for nt, kept in ((257, (51, 205)), (65, (13, 51))):
            g = make_grid(Prism(1.0, 2.0, (), 1.0), 17, nt)
            j, _ = snap_epsilon(g, 0.2)
            assert (j, g.nt - 1 - j) == kept
            levels = np.flatnonzero(interior_mask(g, 2, 0.2).any(axis=0))
            assert (levels[0], levels[-1], levels.size) == (*kept, kept[1] - kept[0] + 1)

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

    def test_trapezoid_sum_constant_integrates_to_measure(self, grid):
        values = np.ones(grid.shape)
        assert trapezoid_sum(grid, values, time_weights=grid.time_weights()) == pytest.approx(1.0)

    def test_trapezoid_sum_window_restricts_time(self, grid):
        # eps = 0.2 snaps to 13 levels of tau = 1/64 on each end
        wt = grid.time_weights(13, 51)
        assert trapezoid_sum(grid, np.ones(grid.shape), time_weights=wt) == pytest.approx(38.0 / 64)

    def test_cross_section_sum_is_the_identity_in_1d(self, grid):
        values = np.ones(grid.shape)
        assert cross_section_sum(grid, values) is values

    def test_cross_section_sum_then_x1_and_time(self):
        # two cross-section axes of different lengths and widths
        g = make_grid(Prism(1.0, 2.0, (0.5, 0.7), 1.0), (9, 7, 5), 17)
        x1, x2, x3, t = g.spacetime_meshgrid()
        values = np.exp(x1 * t) * (1.0 + x2**2) * np.cos(x3)
        reduced = cross_section_sum(g, values)
        assert reduced.shape == (9, 17)
        whole = trapezoid_sum(g, values, time_weights=g.time_weights())
        split = trapezoid_sum(g, reduced, axes=(0,), time_weights=g.time_weights())
        assert split == pytest.approx(whole, rel=1e-14)
        # a constant integrates to the cross-section's area
        assert cross_section_sum(g, np.ones(g.shape)) == pytest.approx(
            np.full((9, 17), 1.0 * 1.4)
        )

    @pytest.mark.parametrize(
        "half_widths, nx", [((0.5,), (17, 33)), ((0.5, 0.7), (9, 17, 13))], ids=["2d", "3d"]
    )
    def test_cross_section_sum_matches_tensordot(self, half_widths, nx):
        # the contraction in axis order with tensordot, to 1e-15 relative
        g = make_grid(Prism(1.0, 2.0, half_widths, 1.0), nx, 33)
        values = np.random.default_rng(4).standard_normal(g.shape) ** 2
        expected = values
        for axis in range(1, g.dim):
            expected = np.tensordot(expected, g.trapezoid_weights(axis), axes=([1], [0]))
        np.testing.assert_allclose(cross_section_sum(g, values), expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "half_widths, nx", [((), (17,)), ((0.5,), (9, 7)), ((0.5, 0.7), (9, 7, 5))],
        ids=["1d", "2d", "3d"],
    )
    def test_time_integral_from_t0_is_the_formula_bitwise(self, half_widths, nx):
        # cumulative trapezoid from level 0, shifted to vanish at t0
        g = make_grid(Prism(1.0, 2.0, half_widths, 1.0), nx, 17)
        values = np.random.default_rng(5).standard_normal(g.shape)
        steps = np.cumsum(g.tau * (values[..., 1:] + values[..., :-1]) / 2.0, axis=-1)
        running = np.concatenate([np.zeros((*values.shape[:-1], 1)), steps], axis=-1)
        expected = running - running[..., g.index_t0 : g.index_t0 + 1]
        out = time_integral_from_t0(g, values)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_rejects_tiny_axis(self):
        with pytest.raises(ValueError, match="nx"):
            make_grid(Prism(1.0, 2.0, (), 1.0), 2, 65)

    @pytest.mark.parametrize("nx, nt, name", [
        (10**400, 33, "nx[0]"), (17, 10**400, "nt"), (-(10**400), 33, "nx[0]"),
    ], ids=["nx", "nt", "negative-nx"])
    def test_point_counts_beyond_float_range_are_rejected(self, nx, nt, name):
        # the message counts the digits instead of printing the number
        with pytest.raises(ValueError) as info:
            make_grid(Prism(1.0, 2.0, (), 1.0), nx, nt)
        assert str(info.value) == (
            f"{name} must be in floating-point range, got a 401-digit integer"
        )

    @pytest.mark.parametrize("nt, digits", [(17, 19), (10**300 + 1, 317)], ids=["19", "317"])
    def test_grid_beyond_any_array_is_rejected(self, nt, digits):
        # 2^56 x 5 nodes of 8 bytes fit an intp, 2^56 x 17 do not
        make_grid(Prism(1.0, 2.0, (), 1.0), 2**56, 5)
        with pytest.raises(ValueError) as info:
            make_grid(Prism(1.0, 2.0, (), 1.0), 2**56, nt)
        assert str(info.value) == (
            f"grid has a {digits}-digit node count, beyond any float64 array"
        )

    @pytest.mark.parametrize("prism, nx, nt, message", [
        (Prism(1e-300, 1e-299, (), 1.0), 65, 257,
         "x1 spacing h[0] = 1.40625e-301 squares to 0 in floating point"),
        (Prism(1.0, 2.0, (1e200,), 1.0), (9, 9), 9,
         "x2 spacing h[1] = 2.5e+199 squares to inf in floating point"),
        (Prism(1.0, 2.0, (), 1e-200), 17, 5,
         "time step tau = 2.5e-201 squares to 0 in floating point"),
    ], ids=["tiny-h", "huge-h", "tiny-tau"])
    def test_spacing_whose_square_leaves_float_range_is_rejected(self, prism, nx, nt, message):
        # the stencils and the marches divide by h^2 and tau^2
        with pytest.raises(ValueError) as info:
            make_grid(prism, nx, nt)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "nx, nt",
        [((17.9,), 33), (17, 33.0), (("17",), 33), ((True,), 33), (17, True)],
    )
    def test_point_counts_must_be_integers(self, nx, nt):
        # no count is truncated or passed on as a float
        with pytest.raises(ValueError, match="grid point counts must be integers"):
            make_grid(Prism(1.0, 2.0, (), 1.0), nx, nt)


class TestStencils:
    """Second-order stencils are exact on quadratics, ends included."""

    def test_first_derivative_exact_on_quadratic(self, grid):
        u = sample_field(grid, lambda x, t: x**2 + 3 * t**2)
        x = grid.axis_coords(0)[:, None]
        np.testing.assert_allclose(
            first_derivative(u, 0, grid.h[0]), 2 * x + 0 * u, atol=1e-12
        )
        np.testing.assert_allclose(
            first_derivative(u, 1, grid.tau),
            6 * grid.times[None, :] + 0 * u,
            atol=1e-12,
        )

    def test_second_derivative_exact_on_quadratic(self, grid):
        u = sample_field(grid, lambda x, t: x**2 + 3 * t**2)
        np.testing.assert_allclose(second_derivative(u, 0, grid.h[0]), 2.0, atol=1e-10)
        np.testing.assert_allclose(dtt(grid, u), 6.0, atol=1e-10)

    def test_dt_exact_on_quadratic(self, grid):
        u = sample_field(grid, lambda x, t: x * x + 3 * t * t)
        np.testing.assert_allclose(
            dt(grid, u), 6 * grid.times[None, :] + 0 * u, atol=1e-12
        )

    def test_gradient_laplacian(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (17, 17), 9)
        u = sample_field(g, lambda x, y, t: x**2 + 2 * y**2 + 0 * t)
        gx, gy = gradient(g, u)
        xs, ys = g.space_meshgrid()
        np.testing.assert_allclose(gx, (2 * xs)[..., None] + 0 * u, atol=1e-10)
        np.testing.assert_allclose(gy, (4 * ys)[..., None] + 0 * u, atol=1e-10)
        np.testing.assert_allclose(laplacian(g, u), 6.0, atol=1e-9)

    def test_mixed_derivative_symmetric(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (17, 17), 9)
        u = sample_field(g, lambda x, y, t: np.sin(x) * np.cos(y) + 0 * t)
        d01 = first_derivative(first_derivative(u, 0, g.h[0]), 1, g.h[1])
        d10 = first_derivative(first_derivative(u, 1, g.h[1]), 0, g.h[0])
        np.testing.assert_allclose(d01, d10, atol=1e-12)

    def test_divergence_matches_component_sum(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (17, 17), 9)
        u = sample_field(g, lambda x, y, t: x * y + 0 * t)
        v = sample_field(g, lambda x, y, t: x - y + 0 * t)
        div = divergence(g, (u, v))
        manual = first_derivative(u, 0, g.h[0]) + first_derivative(v, 1, g.h[1])
        np.testing.assert_allclose(div, manual)


class TestTrace:
    def test_dirichlet_restriction(self, grid):
        u = sample_field(grid, lambda x, t: x + 0 * t)
        assert trace(grid, u, "dirichlet", Face(0, -1)).flat[0] == 1.0
        assert trace(grid, u, "dirichlet", Face(0, 1)).flat[0] == 2.0

    def test_neumann_is_outward(self, grid):
        # du/dn of u = x: -1 on the left wall, +1 on the right wall
        u = sample_field(grid, lambda x, t: x + 0 * t)
        np.testing.assert_allclose(trace(grid, u, "neumann", Face(0, -1)), -1.0, atol=1e-12)
        np.testing.assert_allclose(trace(grid, u, "neumann", Face(0, 1)), 1.0, atol=1e-12)

    def test_trace_shape_2d(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 7), 17)
        u = sample_field(g, lambda x, y, t: x * y * t)
        b = trace(g, u, "dirichlet", Face(1, -1))
        # the tangential x1 axis first, time last
        assert b.shape == (9, 17)
        assert np.array_equal(b, u[:, 0, :])
