"""Forward solvers: marching schemes, fixed point, manufactured solutions."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded

from mfglab.grid import (
    Field,
    Prism,
    boundary_mask,
    make_grid,
    sample_field,
    second_derivative,
)
from mfglab import mfg
from mfglab.kernels import SeparableDelta
from mfglab.mfg import (
    BlowupError,
    M_FLOOR,
    MFGTriple,
    PicardNonConvergence,
    ProblemSpec,
    bump_form,
    manufacture_triple,
    quadratic_form,
    residual,
    solve_fokker_planck,
    solve_hjb,
    solve_mfg_picard,
    spec_for_triple,
    steady_density,
)
from mfglab.mfg import _SpatialOperator, _divergence_flux, _face_drift_coefficients

PRISM = Prism(1.0, 2.0, (), 1.0)


def heat_problem(nx: int, nt: int):
    """Pure-diffusion density problem: no drift, no coupling, constant walls."""
    g = make_grid(PRISM, nx, nt)
    u_const = sample_field(g, lambda x, t: 0.0 + 0 * x + 0 * t)
    m0 = 2.0 + np.sin(np.pi * (g.axis_coords(0) - 1.0))
    spec = ProblemSpec(
        grid=g,
        kernel=SeparableDelta(amplitude=0.0),
        f=Field(g, np.zeros(g.shape)),
        u_data=u_const,
        m_data=Field(g, np.repeat(m0[:, None], nt, axis=1)),
    )
    exact = (
        2.0
        + np.sin(np.pi * (g.axis_coords(0) - 1.0))[:, None]
        * np.exp(-np.pi**2 * g.times[None, :])
    )
    return g, spec, u_const, exact


class TestClosedForms:
    def test_bump_form_is_corner_compatible(self):
        # the time profile has a double zero at both ends: both end levels
        # reduce to the steady x^2 background and d_t vanishes there
        g = make_grid(PRISM, 33, 65)
        form = bump_form(PRISM)
        u = sample_field(g, form.fn)
        x = g.axis_coords(0)
        np.testing.assert_allclose(u.values[..., 0], x * x, atol=1e-14)
        np.testing.assert_allclose(u.values[..., -1], x * x, atol=1e-14)
        mesh = g.spacetime_meshgrid()
        dt_vals = np.broadcast_to(form.d_t(*mesh), g.shape)
        assert np.max(np.abs(dt_vals[..., 0])) < 1e-14
        assert np.max(np.abs(dt_vals[..., -1])) < 1e-14

    def test_bump_peaks_at_central_time(self):
        g = make_grid(PRISM, 33, 65)
        u = sample_field(g, bump_form(PRISM, amplitude=0.3).fn)
        interior = np.abs(u.values - u.values[0, 0])
        assert interior.max() == pytest.approx(interior[:, g.index_t0].max())

    def test_quadratic_form_derivatives_close(self):
        # closed-form derivatives agree with the stencils applied to the sample
        from mfglab.grid import dt as field_dt, gradient, laplacian

        g = make_grid(PRISM, 33, 65)
        form = quadratic_form(1)
        u = sample_field(g, form.fn)
        mesh = g.spacetime_meshgrid()
        np.testing.assert_allclose(
            field_dt(u).values, np.broadcast_to(form.d_t(*mesh), g.shape), atol=1e-10
        )
        np.testing.assert_allclose(
            gradient(g, u.values)[0], np.broadcast_to(form.grad[0](*mesh), g.shape), atol=1e-10
        )
        np.testing.assert_allclose(
            laplacian(g, u.values), np.broadcast_to(form.lap(*mesh), g.shape), atol=1e-9
        )

    def test_steady_density_positive_and_normalized_shape(self):
        g = make_grid(PRISM, 33, 65)
        m0 = steady_density(g)
        assert m0.shape == g.shape_space
        assert m0.min() > 0.0
        x = g.axis_coords(0)
        np.testing.assert_allclose(m0, np.exp(1.0 - x * x), rtol=1e-12)


class TestFokkerPlanck:
    def test_constant_state_is_exact(self):
        g = make_grid(PRISM, 33, 65)
        u_const = sample_field(g, lambda x, t: 0.0 + 0 * x + 0 * t)
        spec = ProblemSpec(
            grid=g,
            kernel=SeparableDelta(amplitude=0.0),
            f=Field(g, np.zeros(g.shape)),
            u_data=u_const,
            m_data=sample_field(g, lambda x, t: 2.0 + 0 * x + 0 * t),
        )
        m = solve_fokker_planck(spec, np.ones(33), u_const)
        assert np.max(np.abs(m.values - 2.0)) < 1e-13

    def test_heat_mode_decay(self):
        _, spec, u_const, exact = heat_problem(33, 65)
        m = solve_fokker_planck(spec, np.ones(33), u_const)
        assert np.max(np.abs(m.values - exact)) < 0.03

    def test_first_order_in_time(self):
        # backward Euler: quartering tau cuts the error near fourfold
        errs = []
        for nt in (65, 257):
            _, spec, u_const, exact = heat_problem(33, nt)
            m = solve_fokker_planck(spec, np.ones(33), u_const)
            errs.append(np.max(np.abs(m.values - exact)))
        assert 0.2 < errs[1] / errs[0] < 0.4

    def test_k_shape_guard(self):
        _, spec, u_const, _ = heat_problem(33, 65)
        with pytest.raises(ValueError, match="spatial shape"):
            solve_fokker_planck(spec, np.ones(7), u_const)

    def test_drift_block_size_leaves_march_unchanged(self, monkeypatch):
        # one level per block, blocks of 3 with a remainder, one block of all
        g = make_grid(PRISM, 33, 65)
        kern = SeparableDelta(amplitude=0.4, n1=1)
        triple, f = manufacture_triple(
            g, kern, np.ones(33), bump_form(PRISM), steady_density(g)
        )
        spec = spec_for_triple(triple, kern, f)
        runs = []
        for nodes in (33, 99, 33 * 65):
            monkeypatch.setattr(mfg, "_DRIFT_BLOCK_NODES", nodes)
            runs.append(solve_fokker_planck(spec, np.ones(33), triple.u).values)
        assert all(np.array_equal(run, runs[0]) for run in runs[1:])

    def test_blowup_guard_names_level(self):
        # the one scan after the march reports the first level out of range
        g = make_grid(PRISM, 33, 65)
        kern = SeparableDelta(amplitude=0.4, n1=1)
        triple, f = manufacture_triple(
            g, kern, np.ones(33), bump_form(PRISM), steady_density(g)
        )
        spec = spec_for_triple(triple, kern, f)
        values = np.array(spec.m_data.values)
        values[0, 5] = 1e13
        spec = dataclasses.replace(spec, m_data=Field(g, values))
        with pytest.raises(BlowupError) as info:
            solve_fokker_planck(spec, np.ones(33), triple.u)
        assert info.value.equation == "fokker-planck"
        assert info.value.t_index == 5
        assert info.value.worst == 1e13


class TestMarchingSystem:
    """The density step's matrix applies the residual's own flux."""

    @staticmethod
    def dense(op, storage):
        if op.grid.dim == 1:
            ab = storage.reshape(3, op.ns)
            return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
        return sp.csc_matrix((storage, op.indices, op.indptr), shape=(op.ns, op.ns)).toarray()

    @pytest.mark.parametrize("half_widths, nx", [((), (17,)), ((0.5,), (9, 7))])
    def test_fp_system_matches_residual_flux(self, half_widths, nx):
        g = make_grid(Prism(1.0, 2.0, half_widths, 1.0), nx, 9)
        rng = np.random.default_rng(11)
        k = rng.uniform(0.5, 1.5, nx)
        u = rng.normal(size=nx)
        x = rng.uniform(0.5, 1.5, nx)
        op = _SpatialOperator(g)
        storage = op.system(g.tau, _face_drift_coefficients(g, k, u))
        got = (self.dense(op, storage) @ x.ravel()).reshape(nx)
        lap = sum(second_derivative(x, axis, g.h[axis]) for axis in range(g.dim))
        expected = x - g.tau * (lap + _divergence_flux(g, k, x, u))
        inner = ~boundary_mask(g)
        scale = np.max(np.abs(expected[inner]))
        assert np.max(np.abs(got - expected)[inner]) <= 1e-12 * scale
        np.testing.assert_array_equal(got[~inner], x[~inner])

    def test_1d_factor_solves_like_solve_banded(self):
        g = make_grid(PRISM, 33, 9)
        rng = np.random.default_rng(5)
        k = rng.uniform(0.5, 1.5, 33)
        u = rng.normal(size=33)
        b = rng.normal(size=33)
        op = _SpatialOperator(g)
        storage = op.system(g.tau, _face_drift_coefficients(g, k, u))
        expected = solve_banded((1, 1), storage.reshape(3, op.ns), b)
        assert np.array_equal(op.factor(storage)(b), expected)

    def test_1d_factor_rejects_singular_matrix(self):
        op = _SpatialOperator(make_grid(PRISM, 17, 9))
        with pytest.raises(np.linalg.LinAlgError):
            op.factor(np.zeros(3 * op.ns))


class TestHJB:
    def test_backward_heat_mode(self):
        g = make_grid(PRISM, 33, 257)
        kern = SeparableDelta(amplitude=0.0)
        exact = (
            np.sin(np.pi * (g.axis_coords(0) - 1.0))[:, None]
            * np.exp(-np.pi**2 * (1.0 - g.times[None, :]))
        )
        ones = sample_field(g, lambda x, t: 1.0 + 0 * x + 0 * t)
        spec = ProblemSpec(
            grid=g, kernel=kern, f=Field(g, np.zeros(g.shape)), u_data=Field(g, exact), m_data=ones
        )
        u = solve_hjb(spec, np.zeros(33), ones)
        assert np.max(np.abs(u.values - exact)) < 8e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_guard_names_level(self):
        # the report names the first level out of range, and no level marched
        # past it may leak a RuntimeWarning
        g = make_grid(PRISM, 33, 65)
        kern = SeparableDelta(amplitude=0.4, n1=1)
        triple, f = manufacture_triple(
            g, kern, np.ones(33), bump_form(PRISM), steady_density(g)
        )
        spec = spec_for_triple(triple, kern, f)
        with pytest.raises(BlowupError, match="blew up at time level") as info:
            solve_mfg_picard(spec, -80.0 * np.ones(33), damping=1.0, max_iter=3)
        assert info.value.equation == "hjb"
        assert info.value.t_index == 59
        assert info.value.worst == pytest.approx(1.0787727898274822e24, rel=1e-12)


class TestPicard:
    def test_decoupled_problem_converges_immediately(self):
        # no kernel term and f = 0: u never sees m, one sweep settles both
        g = make_grid(PRISM, 33, 65)
        u_const = sample_field(g, lambda x, t: 0.0 + 0 * x + 0 * t)
        spec = ProblemSpec(
            grid=g,
            kernel=SeparableDelta(amplitude=0.0),
            f=Field(g, np.zeros(g.shape)),
            u_data=u_const,
            m_data=Field(g, np.repeat(steady_density(g)[..., None], g.nt, axis=-1)),
        )
        triple = solve_mfg_picard(spec, np.ones(33), tol=1e-9)
        assert triple.report["iterations"] == 1

    def test_benchmark_problem_converges(self, make_pair):
        pair = make_pair(33, 65)
        rep = pair["t1"].report
        assert rep["history"][-1] < 1e-10
        assert rep["iterations"] < 40
        # damped fixed point contracts at a steady rate here
        hist = rep["history"]
        ratios = [b / a for a, b in zip(hist, hist[1:]) if a > 1e-14]
        assert max(ratios[3:12]) < 0.6

    def test_deterministic(self, make_pair):
        pair = make_pair(33, 65)
        again = solve_mfg_picard(pair["spec"], pair["k1"], damping=0.5, max_iter=80, tol=1e-10)
        np.testing.assert_array_equal(pair["t1"].u.values, again.u.values)
        np.testing.assert_array_equal(pair["t1"].m.values, again.m.values)

    def test_solution_solves_both_equations(self, make_pair):
        pair = make_pair(33, 65)
        _, l2_hjb, _ = residual(pair["t1"], pair["spec"], "hjb")
        _, l2_fp, _ = residual(pair["t1"], pair["spec"], "fp")
        assert l2_hjb < 0.1 and l2_fp < 0.01

    def test_nonconvergence_carries_history(self):
        g = make_grid(PRISM, 33, 65)
        kern = SeparableDelta(amplitude=12.0, n1=12)
        triple, f = manufacture_triple(
            g, kern, np.ones(33), bump_form(PRISM), steady_density(g)
        )
        spec = spec_for_triple(triple, kern, f)
        with pytest.raises(PicardNonConvergence, match="no convergence after"):
            solve_mfg_picard(spec, np.ones(33), damping=1.0, max_iter=6, tol=1e-12)

    def test_damping_validated(self, make_pair):
        pair = make_pair(33, 65)
        with pytest.raises(ValueError, match="damping"):
            solve_mfg_picard(pair["spec"], pair["k1"], damping=0.0)

    def test_solvers_read_only_boundary_and_end_levels(self, make_pair):
        # the interior of u_data below the terminal level and of m_data above
        # the initial level are not data: filling them changes nothing
        pair = make_pair(33, 65)
        g, spec = pair["grid"], pair["spec"]
        inner = ~boundary_mask(g)
        u_values = np.array(spec.u_data.values)
        u_values[inner, :-1] = 7.0
        m_values = np.array(spec.m_data.values)
        m_values[inner, 1:] = 3.0
        filled = dataclasses.replace(
            spec, u_data=Field(g, u_values), m_data=Field(g, m_values)
        )
        got = solve_mfg_picard(filled, pair["k1"], damping=0.5, max_iter=80, tol=1e-10)
        assert np.array_equal(got.u.values, pair["t1"].u.values)
        assert np.array_equal(got.m.values, pair["t1"].m.values)

    def test_mirror_symmetry(self, make_pair):
        # reflecting every data array about the slab midpoint commutes with
        # the solver to roundoff
        pair = make_pair(33, 65)
        g, spec = pair["grid"], pair["spec"]

        def flip(a):
            return np.asarray(a)[::-1].copy()

        mirrored = ProblemSpec(
            grid=g,
            kernel=spec.kernel,
            f=Field(g, flip(spec.f.values)),
            u_data=Field(g, flip(spec.u_data.values)),
            m_data=Field(g, flip(spec.m_data.values)),
        )
        got = solve_mfg_picard(mirrored, flip(pair["k1"]), damping=0.5, max_iter=80, tol=1e-10)
        assert np.max(np.abs(got.u.values[::-1] - pair["t1"].u.values)) < 1e-12
        assert np.max(np.abs(got.m.values[::-1] - pair["t1"].m.values)) < 1e-12


class TestManufacture:
    def test_residuals_small_on_coarse_grid(self, make_pair):
        pair = make_pair(33, 65)
        g = pair["grid"]
        triple, f = manufacture_triple(
            g, pair["spec"].kernel, pair["k1"], bump_form(PRISM), steady_density(g)
        )
        spec = spec_for_triple(triple, pair["spec"].kernel, f)
        _, l2_hjb, _ = residual(triple, spec, "hjb")
        _, l2_fp, _ = residual(triple, spec, "fp")
        assert l2_hjb < 5e-3 and l2_fp < 1e-2

    def test_rejects_nonpositive_initial_density(self):
        g = make_grid(PRISM, 33, 65)
        with pytest.raises(ValueError, match="positive"):
            manufacture_triple(
                g, SeparableDelta(), np.ones(33), bump_form(PRISM), np.zeros(33)
            )

    def test_density_stays_above_floor(self, make_pair):
        pair = make_pair(33, 65)
        assert pair["t1"].m.values.min() > M_FLOOR

    def test_quadratic_form_2d_is_reproduced_exactly(self):
        # a space-time quadratic lies in the kernel of the truncation error
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 9), 17)
        x1, x2 = g.space_meshgrid()
        kern = SeparableDelta(amplitude=0.2)
        triple, f = manufacture_triple(
            g, kern, np.ones((9, 9)), quadratic_form(2),
            np.exp(1.0 - x1**2 - 0.5 * x2**2),
        )
        spec = spec_for_triple(triple, kern, f)
        _, l2_hjb, _ = residual(triple, spec, "hjb")
        assert l2_hjb < 1e-12

    def test_2d_picard_smoke(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 9), 17)
        x1, x2 = g.space_meshgrid()
        kern = SeparableDelta(amplitude=0.2)
        triple, f = manufacture_triple(
            g, kern, np.ones((9, 9)), quadratic_form(2),
            np.exp(1.0 - x1**2 - 0.5 * x2**2),
        )
        spec = spec_for_triple(triple, kern, f)
        got = solve_mfg_picard(spec, np.ones((9, 9)), damping=0.5, max_iter=40, tol=1e-8)
        assert got.report["history"][-1] < 1e-8
        assert np.max(np.abs(got.u.values - triple.u.values)) < 0.05


class TestSpecValidation:
    def test_shape_and_positivity_guards(self):
        g = make_grid(PRISM, 33, 65)
        good = dict(
            grid=g,
            kernel=SeparableDelta(),
            f=Field(g, np.zeros(g.shape)),
            u_data=Field(g, np.zeros(g.shape)),
            m_data=Field(g, np.ones(g.shape)),
        )
        ProblemSpec(**good)
        other = make_grid(PRISM, 17, 65)
        with pytest.raises(ValueError, match="u_data lives on a different grid"):
            ProblemSpec(**{**good, "u_data": Field(other, np.zeros(other.shape))})
        m_values = np.ones(g.shape)
        m_values[4, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            ProblemSpec(**{**good, "m_data": Field(g, m_values)})
        # manufacture_triple leaves the rule to the ProblemSpec it builds
        m0 = steady_density(g)
        m0[3] = 0.0
        with pytest.raises(ValueError, match="initial density must be positive, min = "):
            manufacture_triple(g, SeparableDelta(), np.ones(33), bump_form(PRISM), m0)

    def test_triple_guards(self, make_pair):
        pair = make_pair(33, 65)
        with pytest.raises(ValueError, match="spatial shape"):
            MFGTriple(pair["t1"].u, pair["t1"].m, np.ones(7))

    def test_residual_rejects_unknown_equation(self, make_pair):
        pair = make_pair(33, 65)
        with pytest.raises(ValueError, match="unknown equation"):
            residual(pair["t1"], pair["spec"], "navier")

    def test_nondegeneracy_constant_positive(self, make_pair):
        assert make_pair(33, 65)["t1"].nondegeneracy_constant() > 0.0
