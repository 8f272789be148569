"""Interaction kernels: per-axis factors against the dense quadrature matrix,
and closed forms."""

import tracemalloc

import numpy as np
import pytest

from mfglab.grid import Prism, make_grid, sample_field
from mfglab.kernels import (
    Kernel,
    _axis_factors,
    apply_kernel,
    causal_weights,
    fubini_swap_residual,
    kernel_bound,
)


@pytest.fixture
def grid():
    return make_grid(Prism(1.0, 2.0, (), 1.0), 65, 33)


@pytest.fixture
def grid2d():
    return make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 17), 9)


class TestSeparable:
    def test_slab_reduces_to_pointwise_scaling(self, grid):
        # no cross axes: the cross integral collapses to the value itself
        m = sample_field(grid, lambda x, t: np.sin(x) + t)
        out = apply_kernel(Kernel("separable", amplitude=0.4, n1=1), grid, m)
        np.testing.assert_allclose(out, 0.4 * m, atol=1e-14)

    def test_cosine_profile_integrates_cross_section(self, grid2d):
        # profile cos(pi x2 / 2w) on each side; integral of the y-factor is 2w * 2/pi
        m = sample_field(grid2d, lambda x, y, t: 1.0 + 0 * x + 0 * y + 0 * t)
        out = apply_kernel(Kernel("separable", profile="cosine"), grid2d, m)
        _, x2 = grid2d.space_meshgrid()
        want = np.cos(np.pi * x2)[..., None] * (2.0 / np.pi) + 0 * out
        np.testing.assert_allclose(out, want, rtol=4e-3, atol=1e-12)

    def test_unknown_profile_rejected(self):
        # checked when the kernel is built, for names and non-names alike
        for profile in ("triangle", lambda xs, ys: 1.0):
            for kind in ("separable", "causal"):
                with pytest.raises(ValueError, match="unknown kernel profile"):
                    Kernel(kind, profile=profile)


class TestCausal:
    def test_constant_density_closed_form(self, grid):
        # integral_x^b 1 dy = b - x, exact for trapezoid weights; the
        # degenerate end row keeps the closed-corner half weight h/2
        m = sample_field(grid, lambda x, t: 1.0 + 0 * x + 0 * t)
        out = apply_kernel(Kernel("causal"), grid, m)
        x = grid.axis_coords(0)
        want = (2.0 - x)[:, None] + 0 * out
        want[-1] = 0.5 * grid.h[0]
        np.testing.assert_allclose(out, want, atol=1e-13)

    def test_linear_density_closed_form(self, grid):
        # integral_x^2 y dy = 2 - x^2/2, trapezoid is exact on linear integrands
        m = sample_field(grid, lambda x, t: x + 0 * t)
        out = apply_kernel(Kernel("causal"), grid, m)
        x = grid.axis_coords(0)
        want = (2.0 - 0.5 * x * x)[:, None] + 0 * out
        want[-1] = 0.5 * grid.h[0] * 2.0
        np.testing.assert_allclose(out, want, atol=1e-13)

    def test_right_wall_keeps_half_node_weight(self, grid):
        # the closed corner leaves h/2 * m(b) at the wall instead of zero
        m = sample_field(grid, lambda x, t: np.exp(x) + 0 * t)
        out = apply_kernel(Kernel("causal"), grid, m)
        np.testing.assert_allclose(
            out[-1], 0.5 * grid.h[0] * np.exp(2.0), rtol=1e-12
        )


class TestCausalWeights:
    def test_rows_integrate_from_node_to_end(self):
        w = causal_weights(9, 0.125)
        # row i applied to ones gives the remaining length; the degenerate
        # last row holds the closed-corner half weight
        want = 0.125 * (8.0 - np.arange(9))
        want[-1] = 0.0625
        np.testing.assert_allclose(w @ np.ones(9), want, atol=1e-15)

    def test_swapped_rows_integrate_from_start(self):
        # the flip of the causal weights, the swapped order of fubini_swap_residual
        w = causal_weights(9, 0.125)[::-1, ::-1]
        want = 0.125 * np.arange(9.0)
        want[0] = 0.0625
        np.testing.assert_allclose(w @ np.ones(9), want, atol=1e-15)

    def test_fubini_swap_identity(self, grid):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((65, 65))
        assert fubini_swap_residual(grid, samples) <= 1e-10


class TestKernelBound:
    def test_declared_bound_returned(self, grid):
        assert kernel_bound(Kernel("separable", amplitude=0.4, n1=1), grid) == 1.0

    def test_declared_bound_enforced(self, grid):
        with pytest.raises(ValueError):
            kernel_bound(Kernel("separable", amplitude=5.0, n1=1), grid)

    def test_sampled_bound_without_declaration(self, grid):
        got = kernel_bound(Kernel("causal", amplitude=0.7), grid)
        assert got == pytest.approx(0.7, rel=1e-12)


class TestApplySpatial:
    def test_matches_time_slice(self, grid):
        # one call serves a space-time array and a snapshot of it
        m = sample_field(grid, lambda x, t: np.cos(x) * (1 + t))
        kern = Kernel("causal", amplitude=0.3)
        full = apply_kernel(kern, grid, m)
        one = apply_kernel(kern, grid, np.ascontiguousarray(m[:, 5]))
        np.testing.assert_allclose(one, full[:, 5], atol=1e-14)

    def test_shape_guard(self, grid, grid2d):
        # the leading axes must be the spatial shape, with one trailing axis at most
        bad = [(grid, np.zeros(7)), (grid, np.zeros((65, 3, 2))), (grid2d, np.zeros((17, 9)))]
        for g, values in bad:
            with pytest.raises(ValueError, match="spatial shape"):
                apply_kernel(Kernel("separable"), g, values)


# ---------------------------------------------------------------------------
# reference: the dense quadrature matrix over the flattened spatial grid


def _flat_coords(grid, axes):
    mesh = np.meshgrid(*[grid.axis_coords(i) for i in axes], indexing="ij")
    if not mesh:
        return np.zeros((1, 0))
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _flat_weights(grid, axes):
    w = np.ones(1)
    for i in axes:
        w = np.multiply.outer(w, grid.trapezoid_weights(i)).ravel()
    return w


def _dense_profile(kernel, grid):
    """Ybar over every pair of flattened nodes: the cross-section's for
    the separable kernel, the full space's for the causal one."""
    skip = 1 if kernel.type == "causal" else 0
    coords = _flat_coords(grid, range(1 - skip, grid.dim))
    out = np.ones((coords.shape[0], coords.shape[0]))
    if kernel.profile == "constant":
        return out
    for k, w in enumerate(grid.prism.half_widths):
        c = np.cos(0.5 * np.pi * coords[:, skip + k] / w)
        out = out * c[:, None] * c[None, :]
    return out


def dense_matrix(kernel, grid):
    """Kernel as one matrix over the flattened space (the cross-section for
    the separable kernel), built from the closed-form Kronecker formulas."""
    cross = list(range(1, grid.dim))
    wbar = _flat_weights(grid, cross)
    Ybar = _dense_profile(kernel, grid)
    if kernel.type == "separable":
        return kernel.amplitude * Ybar * wbar[None, :]
    Wc = causal_weights(grid.nx[0], grid.h[0])
    return kernel.amplitude * Ybar * np.kron(Wc, np.tile(wbar, (wbar.size, 1)))


def dense_apply(kernel, grid, values):
    M = dense_matrix(kernel, grid)
    if kernel.type == "separable":
        flat = values.reshape(grid.nx[0], M.shape[0], -1)
        return np.einsum("pq,iqt->ipt", M, flat).reshape(values.shape)
    return (M @ values.reshape(M.shape[0], -1)).reshape(values.shape)


REFERENCE_GRIDS = {
    "1d": (Prism(1.0, 2.0, (), 1.0), 65),
    "2d": (Prism(1.0, 2.0, (0.5,), 1.0), (9, 17)),
    "3d": (Prism(1.0, 2.0, (0.5, 0.75), 1.0), (7, 9, 11)),
}


def _reference_kernels(dim):
    for kind in ("separable", "causal"):
        for profile in ("constant", "cosine"):
            yield Kernel(kind, profile=profile, amplitude=0.4)


class TestDenseReference:
    """Axis-by-axis application against the dense matrix: bitwise in 1-D,
    where the arithmetic is the same, and to 1e-14 relative otherwise."""

    @staticmethod
    def _check(dim, got, want):
        if dim == 1:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRIDS))
    def test_kernel_matches_dense(self, name):
        prism, nx = REFERENCE_GRIDS[name]
        g = make_grid(prism, nx, 5)
        vals = np.random.default_rng(7).standard_normal(g.shape)
        for kern in _reference_kernels(g.dim):
            got = apply_kernel(kern, g, vals)
            self._check(g.dim, got, dense_apply(kern, g, vals))

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRIDS))
    def test_bound_is_the_dense_sup(self, name):
        prism, nx = REFERENCE_GRIDS[name]
        g = make_grid(prism, nx, 5)
        for kern in _reference_kernels(g.dim):
            # rounding is monotone, so the product of per-axis maxima is exact
            want = float(abs(kern.amplitude) * np.max(np.abs(_dense_profile(kern, g))))
            assert kernel_bound(kern, g) == want


def _tensordot_apply(kernel, grid, values):
    """The kernel contracted axis by axis with ``np.tensordot``."""
    scale, factors = _axis_factors(kernel, grid)
    out = values
    for axis, factor in enumerate(factors):
        if factor is not None:
            out = np.moveaxis(np.tensordot(factor, out, axes=(1, axis)), 0, axis)
    return scale * values if out is values else out


class TestTensordotEquivalence:
    """``apply_kernel`` takes the same ``np.dot`` of the same operands as
    ``np.tensordot``, so the results are bitwise equal."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRIDS))
    @pytest.mark.parametrize("spacetime", [False, True], ids=["snapshot", "spacetime"])
    def test_equals_tensordot(self, name, spacetime):
        prism, nx = REFERENCE_GRIDS[name]
        g = make_grid(prism, nx, 5)
        shape = g.shape if spacetime else g.shape_space
        vals = np.random.default_rng(11).standard_normal(shape)
        for kern in _reference_kernels(g.dim):
            got = apply_kernel(kern, g, vals)
            want = _tensordot_apply(kern, g, vals)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_causal_2d_holds_three_fields(self):
        # values, the transposed copy and the product; tensordot kept the
        # first product alive through the second, four fields in all
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (33, 33), 65)
        vals = np.random.default_rng(5).standard_normal(g.shape)
        field = vals.nbytes
        tracemalloc.start()
        try:
            apply_kernel(Kernel("causal"), g, vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * field
