"""Forward solvers: marching schemes, fixed point, manufactured solutions."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_banded

from mfglab.grid import (
    Prism,
    boundary_mask,
    make_grid,
    sample_field,
    second_derivative,
)
from mfglab import mfg
from mfglab.cli import DEFAULT_CONFIG
from mfglab.kernels import Kernel
from mfglab.norms import norm
from mfglab.mfg import (
    BlowupError,
    M_FLOOR,
    MFGTriple,
    PicardNonConvergence,
    ProblemSpec,
    bump_form,
    manufacture_triple,
    residual,
    solve_fokker_planck,
    solve_mfg_members,
    solve_mfg_picard,
    steady_density,
)
from mfglab.mfg import _SpatialOperator, _divergence_flux, _face_drift_coefficients, _march_fp

from conftest import build_problem, mixing_window, perturbation, quadratic_form

PRISM = Prism(1.0, 2.0, (), 1.0)


def heat_problem(nx: int, nt: int):
    """Pure-diffusion density problem: no drift, no coupling, constant walls."""
    g = make_grid(PRISM, nx, nt)
    u_const = sample_field(g, lambda x, t: 0.0 + 0 * x + 0 * t)
    m0 = 2.0 + np.sin(np.pi * (g.axis_coords(0) - 1.0))
    spec = ProblemSpec(
        grid=g,
        kernel=Kernel("separable", amplitude=0.0),
        f=np.zeros(g.shape),
        u_data=u_const,
        m_data=np.repeat(m0[:, None], nt, axis=1),
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
        form = bump_form(PRISM, amplitude=0.3)
        u = sample_field(g, form.fn)
        x = g.axis_coords(0)
        np.testing.assert_allclose(u[..., 0], x * x, atol=1e-14)
        np.testing.assert_allclose(u[..., -1], x * x, atol=1e-14)
        mesh = g.spacetime_meshgrid()
        dt_vals = np.broadcast_to(form.d_t(*mesh), g.shape)
        assert np.max(np.abs(dt_vals[..., 0])) < 1e-14
        assert np.max(np.abs(dt_vals[..., -1])) < 1e-14

    @pytest.mark.parametrize("T", [1e-100, 1e100], ids=["tiny-T", "huge-T"])
    def test_bump_form_needs_t_to_the_fourth_in_float_range(self, T):
        with pytest.raises(ValueError) as info:
            bump_form(Prism(1.0, 2.0, (), T), amplitude=0.3)
        assert str(info.value) == f"T = {T:g} takes T^4 out of floating-point range"

    def test_bump_peaks_at_central_time(self):
        g = make_grid(PRISM, 33, 65)
        u = sample_field(g, bump_form(PRISM, amplitude=0.3).fn)
        interior = np.abs(u - u[0, 0])
        assert interior.max() == pytest.approx(interior[:, g.index_t0].max())

    def test_quadratic_form_derivatives_close(self):
        # closed-form derivatives agree with the stencils applied to the sample
        from mfglab.grid import dt, grad_sq, laplacian

        g = make_grid(PRISM, 33, 65)
        form = quadratic_form()
        u = sample_field(g, form.fn)
        mesh = g.spacetime_meshgrid()
        np.testing.assert_allclose(
            dt(g, u), np.broadcast_to(form.d_t(*mesh), g.shape), atol=1e-10
        )
        np.testing.assert_allclose(
            grad_sq(g, u), np.broadcast_to(form.grad_sq(*mesh), g.shape), atol=1e-10
        )
        np.testing.assert_allclose(
            laplacian(g, u), np.broadcast_to(form.lap(*mesh), g.shape), atol=1e-9
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
            kernel=Kernel("separable", amplitude=0.0),
            f=np.zeros(g.shape),
            u_data=u_const,
            m_data=sample_field(g, lambda x, t: 2.0 + 0 * x + 0 * t),
        )
        m = solve_fokker_planck(spec, np.ones(33), u_const)
        assert np.max(np.abs(m - 2.0)) < 1e-13

    def test_heat_mode_decay(self):
        _, spec, u_const, exact = heat_problem(33, 65)
        m = solve_fokker_planck(spec, np.ones(33), u_const)
        assert np.max(np.abs(m - exact)) < 0.03

    def test_first_order_in_time(self):
        # backward Euler: quartering tau cuts the error near fourfold
        errs = []
        for nt in (65, 257):
            _, spec, u_const, exact = heat_problem(33, nt)
            m = solve_fokker_planck(spec, np.ones(33), u_const)
            errs.append(np.max(np.abs(m - exact)))
        assert 0.2 < errs[1] / errs[0] < 0.4

    def test_k_shape_guard(self):
        _, spec, u_const, _ = heat_problem(33, 65)
        with pytest.raises(ValueError, match=r"k has shape \(7,\), not \(33,\)"):
            solve_fokker_planck(spec, np.ones(7), u_const)

    def test_drift_block_size_leaves_march_unchanged(self, monkeypatch):
        # one level per block, blocks of 3 with a remainder, one block of all
        g = make_grid(PRISM, 33, 65)
        kern = Kernel("separable", amplitude=0.4, n1=1)
        triple, f = manufacture_triple(
            g, kern, np.ones(33), bump_form(PRISM, amplitude=0.3), steady_density(g)
        )
        spec = ProblemSpec(g, kern, f, triple.u, triple.m)
        runs = []
        for nodes in (33, 99, 33 * 65):
            monkeypatch.setattr(mfg, "_DRIFT_BLOCK_NODES", nodes)
            runs.append(solve_fokker_planck(spec, np.ones(33), triple.u))
        assert all(np.array_equal(run, runs[0]) for run in runs[1:])

    def test_blowup_guard_names_level(self):
        # the one scan after the march reports the first level out of range
        g = make_grid(PRISM, 33, 65)
        kern = Kernel("separable", amplitude=0.4, n1=1)
        triple, f = manufacture_triple(
            g, kern, np.ones(33), bump_form(PRISM, amplitude=0.3), steady_density(g)
        )
        spec = ProblemSpec(g, kern, f, triple.u, triple.m)
        values = np.array(spec.m_data)
        values[0, 5] = 1e13
        spec = dataclasses.replace(spec, m_data=values)
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
        # interior rows only: band slot kl + ku + row - col + (2 kl + ku + 1)
        # col of the interior block, with ku = kl, then the couplings of the
        # interior nodes on each face to their boundary neighbours
        cols, offsets = np.divmod(op.band_slots, 3 * op.kl + 1)
        interior = op.interior
        out = np.zeros((op.ns, op.ns))
        out[interior[offsets - 2 * op.kl + cols], interior[cols]] = storage[op.band_entries]
        out[op.boundary, op.boundary] = 1.0
        stencil = storage.reshape((-1,) + op._inner)
        box = interior.reshape(op._inner)
        nodes = np.arange(op.ns).reshape(op.shape)
        for entry, face, outer in op.faces:
            out[box[face], nodes[outer]] = stencil[entry][face]
        return out

    @pytest.mark.parametrize(
        "half_widths, nx",
        # the interior stride of (33, 33) is padded to the least half-bandwidth,
        # that of (9, 35) is not
        [
            ((), (17,)),
            ((0.5,), (9, 7)),
            ((0.5, 0.5), (5, 6, 7)),
            ((0.5,), (33, 33)),
            ((0.5,), (9, 35)),
        ],
    )
    def test_fp_system_matches_residual_flux(self, half_widths, nx):
        g = make_grid(Prism(1.0, 2.0, half_widths, 1.0), nx, 9)
        rng = np.random.default_rng(11)
        k = rng.uniform(0.5, 1.5, nx)
        u = rng.normal(size=nx)
        x = rng.uniform(0.5, 1.5, nx)
        op = _SpatialOperator(g)
        drift = _face_drift_coefficients(g, k[..., None], u[..., None])
        storage = op.system(g.tau, drift)[:, 0]
        got = (self.dense(op, storage) @ x.ravel()).reshape(nx)
        lap = sum(second_derivative(x, axis, g.h[axis]) for axis in range(g.dim))
        expected = x - g.tau * (lap + _divergence_flux(g, k, x, u))
        inner = ~boundary_mask(g)
        scale = np.max(np.abs(expected[inner]))
        assert np.max(np.abs(got - expected)[inner]) <= 1e-12 * scale
        np.testing.assert_array_equal(got[~inner], x[~inner])

    @pytest.mark.parametrize("half_widths, nx", [((), (17,)), ((0.5,), (9, 7))])
    def test_block_columns_match_single_levels(self, half_widths, nx):
        g = make_grid(Prism(1.0, 2.0, half_widths, 1.0), nx, 9)
        rng = np.random.default_rng(13)
        k = rng.uniform(0.5, 1.5, nx)[..., None]
        u = rng.normal(size=(*nx, 4))
        op = _SpatialOperator(g)
        block = op.system(g.tau, _face_drift_coefficients(g, k, u))
        assert block.shape[-1] == 4
        for j in range(4):
            alone = op.system(g.tau, _face_drift_coefficients(g, k, u[..., j : j + 1]))
            assert np.array_equal(block[:, j], alone[:, 0])

    @pytest.mark.parametrize(
        "half_widths, nx", [((), (17,)), ((0.5,), (9, 7)), ((0.5, 0.5), (5, 6, 7))]
    )
    def test_divergence_flux_of_all_levels_matches_single_levels(self, half_widths, nx):
        g = make_grid(Prism(1.0, 2.0, half_widths, 1.0), nx, 9)
        rng = np.random.default_rng(17)
        k = rng.uniform(0.5, 1.5, nx)
        m = rng.uniform(0.5, 1.5, g.shape)
        u = rng.normal(size=g.shape)
        levels = _divergence_flux(g, k[..., None], m, u)
        for j in range(g.nt):
            assert np.array_equal(levels[..., j], _divergence_flux(g, k, m[..., j], u[..., j]))

    @staticmethod
    def assert_levels_solve_from_previous(spec, k, u, m):
        # each marched level is its own system solved from the level before
        # it, as the march left that level, with the walls written: a step
        # that wrote into the level it was handed would have changed it
        g = spec.grid
        op = _SpatialOperator(g)
        on_boundary = boundary_mask(g)
        for j in range(1, g.nt):
            drift = _face_drift_coefficients(g, k[..., None], u[..., j : j + 1])
            b = m[..., j - 1].copy()
            b[on_boundary] = spec.m_data[..., j][on_boundary]
            op.factor(op.system(g.tau, drift)[:, 0])(b.reshape(-1))
            b[on_boundary] = spec.m_data[..., j][on_boundary]
            assert np.array_equal(b, m[..., j]), j

    def test_1d_density_step_keeps_previous_level_and_walls(self):
        # wall data that moves in time shows a step writing into the level
        # it was handed, or a wall value off by roundoff
        g, spec, u_const, _ = heat_problem(33, 65)
        walls = spec.m_data + 0.3 * np.sin(7.0 * g.times)
        spec = dataclasses.replace(spec, m_data=walls)
        k = np.ones(33)
        m = solve_fokker_planck(spec, k, u_const)
        np.testing.assert_array_equal(m[[0, -1]], walls[[0, -1]])
        self.assert_levels_solve_from_previous(spec, k, u_const, m)

    def test_2d_density_step_keeps_previous_level_and_walls(self):
        # the n-D solve leaves the boundary nodes as the step wrote them
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 7), 17)
        walls = np.repeat((2.0 + g.space_meshgrid()[0])[..., None], g.nt, axis=-1)
        walls += 0.3 * np.sin(7.0 * g.times)
        zero = np.zeros(g.shape)
        spec = ProblemSpec(g, Kernel("separable", amplitude=0.0), zero, zero, walls)
        k = np.ones((9, 7))
        m = solve_fokker_planck(spec, k, spec.u_data)
        on_boundary = boundary_mask(g)
        np.testing.assert_array_equal(m[on_boundary], walls[on_boundary])
        self.assert_levels_solve_from_previous(spec, k, spec.u_data, m)

    @pytest.mark.parametrize(
        "half_widths, nx", [((0.5,), (9, 7)), ((0.5,), (33, 33)), ((0.5, 0.5), (5, 5, 5))]
    )
    def test_bounded_drift_factors_without_row_interchanges(self, monkeypatch, half_widths, nx):
        # with max |a| h <= 2 the interior matrix is column diagonally
        # dominant, so partial pivoting keeps every diagonal pivot; a drift
        # well past the bound does interchange rows
        g = make_grid(Prism(1.0, 2.0, half_widths, 1.0), nx, 9)
        rng = np.random.default_rng(19)
        k = rng.uniform(0.5, 1.5, nx)[..., None]
        u = rng.normal(size=nx)[..., None]
        op = _SpatialOperator(g)
        pivots = []
        dgbtrf = mfg.dgbtrf

        def recording(*args, **kwargs):
            out = dgbtrf(*args, **kwargs)
            pivots.append(out[1].copy())
            return out

        monkeypatch.setattr(mfg, "dgbtrf", recording)
        diagonal = np.arange(op.ni)  # scipy numbers the pivots from 0
        for bound, swaps in ((2.0, False), (20.0, True)):
            drift = _face_drift_coefficients(g, k, u)
            worst = max(np.max(np.abs(a)) * h for a, h in zip(drift, g.h))
            drift = _face_drift_coefficients(g, k, u * (bound / worst))
            assert max(np.max(np.abs(a)) * h for a, h in zip(drift, g.h)) <= bound
            op.factor(op.system(g.tau, drift)[:, 0])
            (ipiv,) = pivots
            pivots.clear()
            assert np.array_equal(ipiv, diagonal) != swaps

    def test_1d_factor_solves_like_solve_banded(self):
        g = make_grid(PRISM, 33, 9)
        rng = np.random.default_rng(5)
        k = rng.uniform(0.5, 1.5, 33)
        u = rng.normal(size=33)
        b = rng.normal(size=33)
        op = _SpatialOperator(g)
        drift = _face_drift_coefficients(g, k[..., None], u[..., None])
        storage = op.system(g.tau, drift)[:, 0]
        expected = solve_banded((1, 1), storage.reshape(3, op.ns), b)
        # the solve overwrites its argument and returns it
        assert op.factor(storage)(b) is b
        assert np.array_equal(b, expected)

    def test_1d_factor_rejects_singular_matrix(self):
        op = _SpatialOperator(make_grid(PRISM, 17, 9))
        with pytest.raises(np.linalg.LinAlgError):
            op.factor(np.zeros(3 * op.ns))

    def test_2d_factor_rejects_singular_matrix(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 7), 9)
        op = _SpatialOperator(g)
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            op.factor(np.zeros_like(op.system(g.tau)))

    @pytest.mark.parametrize(
        "half_widths, nx",
        [((0.5,), (9, 7)), ((0.5, 0.5), (5, 5, 5)), ((0.5,), (33, 33)), ((0.5,), (9, 35))],
    )
    def test_nd_factor_solves_like_dense(self, half_widths, nx):
        g = make_grid(Prism(1.0, 2.0, half_widths, 1.0), nx, 9)
        rng = np.random.default_rng(17)
        k = rng.uniform(0.5, 1.5, nx)
        u = rng.normal(size=nx)
        b = rng.normal(size=int(np.prod(nx)))
        op = _SpatialOperator(g)
        drift = _face_drift_coefficients(g, k[..., None], u[..., None])
        storage = op.system(g.tau, drift)[:, 0]
        expected = np.linalg.solve(self.dense(op, storage), b)
        got = op.factor(storage)(b.copy())
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestHJB:
    def test_backward_heat_mode(self):
        g = make_grid(PRISM, 33, 257)
        kern = Kernel("separable", amplitude=0.0)
        exact = (
            np.sin(np.pi * (g.axis_coords(0) - 1.0))[:, None]
            * np.exp(-np.pi**2 * (1.0 - g.times[None, :]))
        )
        ones = sample_field(g, lambda x, t: 1.0 + 0 * x + 0 * t)
        spec = ProblemSpec(
            grid=g, kernel=kern, f=np.zeros(g.shape), u_data=exact, m_data=ones
        )
        # no coupling (zero kernel, f and k): the first value march is the
        # heat march, and the second evaluation confirms it unchanged
        triple = solve_mfg_picard(spec, np.zeros(33), damping=1.0, max_iter=5, tol=1e-10)
        assert triple.report["evaluations"] == 2
        assert np.max(np.abs(triple.u - exact)) < 8e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.usefixtures("damped")
    def test_blowup_guard_names_level(self):
        # the report names the first level out of range, and no level marched
        # past it may leak a RuntimeWarning
        g = make_grid(PRISM, 33, 65)
        kern = Kernel("separable", amplitude=0.4, n1=1)
        triple, f = manufacture_triple(
            g, kern, np.ones(33), bump_form(PRISM, amplitude=0.3), steady_density(g)
        )
        spec = ProblemSpec(g, kern, f, triple.u, triple.m)
        with pytest.raises(BlowupError, match="blew up at time level") as info:
            solve_mfg_picard(spec, -80.0 * np.ones(33), damping=1.0, max_iter=3, tol=1e-8)
        assert info.value.equation == "hjb"
        assert info.value.t_index == 59
        assert info.value.worst == pytest.approx(1.0787727898274822e24, rel=1e-12)


class TestPicard:
    @pytest.mark.usefixtures("damped")
    def test_decoupled_problem_converges_immediately(self):
        # no kernel term and f = 0: u never sees m, one sweep settles both
        g = make_grid(PRISM, 33, 65)
        u_const = sample_field(g, lambda x, t: 0.0 + 0 * x + 0 * t)
        spec = ProblemSpec(
            grid=g,
            kernel=Kernel("separable", amplitude=0.0),
            f=np.zeros(g.shape),
            u_data=u_const,
            m_data=np.repeat(steady_density(g)[..., None], g.nt, axis=-1),
        )
        triple = solve_mfg_picard(spec, np.ones(33), damping=0.5, max_iter=50, tol=1e-9)
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

    @pytest.mark.usefixtures("damped")
    def test_deterministic(self, make_pair):
        pair = make_pair(33, 65)
        again = solve_mfg_picard(pair["spec"], pair["k1"], damping=0.5, max_iter=80, tol=1e-10)
        np.testing.assert_array_equal(pair["t1"].u, again.u)
        np.testing.assert_array_equal(pair["t1"].m, again.m)

    def test_solution_solves_both_equations(self, make_pair):
        pair = make_pair(33, 65)
        res = residual(pair["t1"], pair["spec"])
        assert res["hjb"][0] < 0.1 and res["fp"][0] < 0.01

    def test_nonconvergence_carries_history(self):
        # max_iter bounds the evaluations; the first has no change to record
        g = make_grid(PRISM, 33, 65)
        kern = Kernel("separable", amplitude=12.0, n1=12)
        triple, f = manufacture_triple(
            g, kern, np.ones(33), bump_form(PRISM, amplitude=0.3), steady_density(g)
        )
        spec = ProblemSpec(g, kern, f, triple.u, triple.m)
        with pytest.raises(PicardNonConvergence) as info:
            solve_mfg_picard(spec, np.ones(33), damping=1.0, max_iter=6, tol=1e-12)
        assert str(info.value).startswith("no convergence after 6 evaluations (tol 1.0e-12); ")
        assert len(info.value.history) == 6 - 1

    def test_damping_validated(self, make_pair):
        pair = make_pair(33, 65)
        with pytest.raises(ValueError, match="damping"):
            solve_mfg_picard(pair["spec"], pair["k1"], damping=0.0, max_iter=50, tol=1e-8)

    @pytest.mark.usefixtures("damped")
    def test_solvers_read_only_boundary_and_end_levels(self, make_pair):
        # the interior of u_data below the terminal level and of m_data above
        # the initial level are not data: filling them changes nothing
        pair = make_pair(33, 65)
        g, spec = pair["grid"], pair["spec"]
        inner = ~boundary_mask(g)
        u_values = np.array(spec.u_data)
        u_values[inner, :-1] = 7.0
        m_values = np.array(spec.m_data)
        m_values[inner, 1:] = 3.0
        filled = dataclasses.replace(
            spec, u_data=u_values, m_data=m_values
        )
        got = solve_mfg_picard(filled, pair["k1"], damping=0.5, max_iter=80, tol=1e-10)
        assert np.array_equal(got.u, pair["t1"].u)
        assert np.array_equal(got.m, pair["t1"].m)

    @pytest.mark.usefixtures("damped")
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
            f=flip(spec.f),
            u_data=flip(spec.u_data),
            m_data=flip(spec.m_data),
        )
        got = solve_mfg_picard(mirrored, flip(pair["k1"]), damping=0.5, max_iter=80, tol=1e-10)
        assert np.max(np.abs(got.u[::-1] - pair["t1"].u)) < 1e-12
        assert np.max(np.abs(got.m[::-1] - pair["t1"].m)) < 1e-12


class TestAnderson:
    """The windowed update of the density iterate: the fixed point of the
    damped iteration, in fewer evaluations."""

    TOL = 1e-10

    def assert_close_to_damped(self, spec, ks, damped):
        # the stated tolerance: both fields within 10 tol (L2) of the damped
        # step
        g = spec.grid
        fast = solve_mfg_members(spec, ks, damping=1.0, max_iter=80, tol=self.TOL)
        for a, b in zip(fast, damped):
            assert a.report["evaluations"] < b.report["evaluations"]
            assert norm(g, a.u - b.u, "L2") <= 10 * self.TOL
            assert norm(g, a.m - b.m, "L2") <= 10 * self.TOL

    def test_1d_pair_matches_damped(self, make_pair):
        pair = make_pair(33, 65)
        ks = [pair["k1"], pair["k2"]]
        self.assert_close_to_damped(pair["spec"], ks, [pair["t1"], pair["t2"]])

    def test_2d_causal_matches_damped(self):
        spec, bump = causal_2d_problem()
        k = np.ones((9, 9)) + 0.05 * bump
        with mixing_window(0):
            damped = solve_mfg_picard(spec, k, damping=0.5, max_iter=80, tol=self.TOL)
        self.assert_close_to_damped(spec, [k], [damped])

    def test_default_problem_converges_in_12_evaluations(self):
        # 21 evaluations with the damped step (no window, damping 0.5)
        g, _, _, spec = build_problem(65, 257)
        triple = solve_mfg_picard(spec, np.ones(65), **DEFAULT_CONFIG["solver"])
        assert triple.report["evaluations"] <= 12


def causal_2d_problem():
    """The 9x9x17 causal-kernel problem and a coefficient bump that
    vanishes on the lateral boundary."""
    g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 9), 17)
    kern = Kernel("causal", amplitude=0.4)
    x1, x2 = g.space_meshgrid()
    triple, f = manufacture_triple(
        g,
        kern,
        np.ones((9, 9)),
        bump_form(g.prism, amplitude=0.3),
        np.exp(1.0 - x1**2 - 0.5 * x2**2),
    )
    bump = np.sin(np.pi * (x1 - 1.0)) ** 2 * np.cos(np.pi * x2) ** 2
    return ProblemSpec(g, kern, f, triple.u, triple.m), bump


def solo_outcome(spec, k, **solver):
    """``solve_mfg_picard``'s triple, or the failure it raised."""
    try:
        return solve_mfg_picard(spec, k, **solver)
    except (PicardNonConvergence, BlowupError) as e:
        return e


def assert_same_outcome(got, want):
    """Byte for byte: a triple's u, m and report, or a failure's type,
    message and fields."""
    assert type(got) is type(want)
    if isinstance(want, MFGTriple):
        for name in ("u", "m"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.flags.c_contiguous
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got.k.tobytes() == want.k.tobytes()
        assert got.report == want.report
    elif isinstance(want, PicardNonConvergence):
        assert str(got) == str(want)
        assert got.history == want.history
    else:
        assert str(got) == str(want)
        assert (got.equation, got.t_index, got.worst) == (want.equation, want.t_index, want.worst)


@pytest.mark.usefixtures("damped")
class TestLockstep:
    """Members marched in lockstep give each the bytes of its solo solve,
    on the damped step unless a test opens the mixing window."""

    # the base converges in 20 damped evaluations and scale 4.0 needs 22, so
    # a cap of 21 splits them; with a cap of 30, scale 4.0 marches on alone
    # after the others leave
    SOLVER = {"damping": 0.5, "max_iter": 21, "tol": 1e-9}

    @pytest.mark.parametrize("width", [None, 2])
    @pytest.mark.parametrize("max_iter", [21, 30])
    def test_1d_members_equal_solo_solves(self, monkeypatch, width, max_iter):
        g, _, _, spec = build_problem(33, 65)
        k1 = np.ones(33)
        ks = [k1] + [k1 + s * perturbation(g) for s in (0.02, 4.0)]
        if width is not None:
            monkeypatch.setattr(mfg, "_GROUP_NODES", width * g.nt * 33)
        solver = dict(self.SOLVER, max_iter=max_iter)
        got = list(solve_mfg_members(spec, ks, **solver))
        want = [solo_outcome(spec, k, **solver) for k in ks]
        last = MFGTriple if max_iter == 30 else PicardNonConvergence
        assert [type(o) for o in want] == [MFGTriple, MFGTriple, last]
        for a, b in zip(got, want):
            assert_same_outcome(a, b)

    # evaluations to converge with the window (base, 0.02, 4.0): 12, 12, 14;
    # a cap of 13 splits them, and with a cap of 20 scale 4.0 marches on
    # alone, its window moved into a row that another member left
    @pytest.mark.parametrize("width", [None, 2])
    @pytest.mark.parametrize("max_iter, last", [(13, PicardNonConvergence), (20, MFGTriple)])
    def test_1d_windowed_members_equal_solo_solves(self, monkeypatch, width, max_iter, last):
        g, _, _, spec = build_problem(33, 65)
        k1 = np.ones(33)
        ks = [k1] + [k1 + s * perturbation(g) for s in (0.02, 4.0)]
        if width is not None:
            monkeypatch.setattr(mfg, "_GROUP_NODES", width * g.nt * 33)
        monkeypatch.setattr(mfg, "_MIXING_WINDOW", 1)
        solver = dict(self.SOLVER, damping=1.0, max_iter=max_iter)
        got = list(solve_mfg_members(spec, ks, **solver))
        want = [solo_outcome(spec, k, **solver) for k in ks]
        assert [type(o) for o in want] == [MFGTriple, MFGTriple, last]
        for a, b in zip(got, want):
            assert_same_outcome(a, b)

    def test_2d_causal_members_equal_solo_solves(self):
        # side-by-side band storage: one dgbtrf per member, one dgbtrs per level
        self.check_2d_causal_members({"damping": 0.5})

    def test_2d_causal_windowed_members_equal_solo_solves(self):
        with mixing_window(1):
            self.check_2d_causal_members({"damping": 1.0})

    @staticmethod
    def check_2d_causal_members(solver):
        spec, bump = causal_2d_problem()
        ks = [np.ones((9, 9)) + s * bump for s in (0.0, 0.05, 0.3)]
        solver = dict(solver, max_iter=60, tol=1e-10)
        got = list(solve_mfg_members(spec, ks, **solver))
        want = [solve_mfg_picard(spec, k, **solver) for k in ks]
        for a, b in zip(got, want):
            assert_same_outcome(a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("order", [(1.0, -80.0), (-80.0, 1.0)])
    def test_blowup_stays_with_its_member(self, order):
        # the TestHJB blow-up setup beside a member that marches normally,
        # which keeps marching after the blown-up member leaves
        g = make_grid(PRISM, 33, 65)
        kern = Kernel("separable", amplitude=0.4, n1=1)
        triple, f = manufacture_triple(
            g, kern, np.ones(33), bump_form(PRISM, amplitude=0.3), steady_density(g)
        )
        spec = ProblemSpec(g, kern, f, triple.u, triple.m)
        solver = {"damping": 1.0, "max_iter": 3, "tol": 1e-8}
        ks = [c * np.ones(33) for c in order]
        got = dict(zip(order, solve_mfg_members(spec, ks, **solver)))
        assert_same_outcome(got[1.0], solo_outcome(spec, np.ones(33), **solver))
        blowup = got[-80.0]
        assert isinstance(blowup, BlowupError)
        assert (blowup.equation, blowup.t_index, blowup.worst) == ("hjb", 59, 1.0787727898274822e24)

    def test_density_overflow_does_not_cross_members(self):
        # a drift near resonance grows one member's density ~1e4-fold per
        # level until it overflows; in the block-diagonal solve 0 * inf = NaN
        # would reach its neighbour through the zero coupling
        g, triple, _, spec = build_problem(33, 129)
        x = g.axis_coords(0)[:, None]
        runaway = 1327.0 * (x - 1.5) ** 2 + 0.0 * g.times
        k = np.ones(33)
        good = solve_fokker_planck(spec, k, triple.u)
        with pytest.raises(BlowupError) as alone:
            solve_fokker_planck(spec, k, runaway)
        op = _SpatialOperator(g)
        for u in ([triple.u, runaway], [runaway, triple.u]):
            out = np.empty(g.shape_space + (2, g.nt))
            errors = _march_fp(spec, op, np.stack([k, k], -1), np.stack(u, axis=-2), out)
            assert not np.all(np.isfinite(out))
            i = 0 if u[0] is triple.u else 1
            assert out[..., i, :].tobytes() == good.tobytes()
            assert errors[i] is None
            assert str(errors[1 - i]) == str(alone.value)
            assert errors[1 - i].worst == alone.value.worst

    @pytest.mark.parametrize(
        "prism, nx, nt, members, calls",
        [(PRISM, 65, 257, 7, [7]), (Prism(1.0, 2.0, (0.5,), 1.0), (33, 33), 65, 2, [1, 1])],
    )
    def test_default_budget_sets_the_width(self, monkeypatch, prism, nx, nt, members, calls):
        # the default sweep's seven 65x257 members march as one group; a
        # 33x33x65 member marches alone
        g = make_grid(prism, nx, nt)
        spec = ProblemSpec(g, Kernel("separable"), *(np.ones(g.shape) for _ in range(3)))
        widths = []

        def stub(spec, ks, **solver):
            widths.append(len(ks))
            return [None] * len(ks)

        monkeypatch.setattr(mfg, "_picard_group", stub)
        ks = [np.ones(g.shape_space)] * members
        assert list(solve_mfg_members(spec, ks, **self.SOLVER)) == [None] * members
        assert widths == calls

    def test_members_converging_together_equal_solo_solves(self):
        # every member converges in the same evaluation, so the iterate
        # stacks are released before the results are copied out
        self.check_converging_together(self.SOLVER)

    def test_windowed_members_converging_together_equal_solo_solves(self):
        # the window's stack is released with the iterate stacks
        with mixing_window(1):
            self.check_converging_together(dict(self.SOLVER, damping=1.0))

    @staticmethod
    def check_converging_together(solver):
        g, _, _, spec = build_problem(33, 65)
        ks = [np.ones(33) for _ in range(3)]
        want = solve_mfg_picard(spec, ks[0], **solver)
        got = list(solve_mfg_members(spec, ks, **solver))
        assert len(got) == 3
        for a in got:
            assert_same_outcome(a, want)

    def test_outcomes_come_group_by_group(self, monkeypatch):
        # a group is solved when its first outcome is asked for
        g, _, _, spec = build_problem(33, 65)
        monkeypatch.setattr(mfg, "_GROUP_NODES", 2 * g.nt * 33)
        calls = []
        group = mfg._picard_group

        def counted(spec, ks, **solver):
            calls.append(len(ks))
            return group(spec, ks, **solver)

        monkeypatch.setattr(mfg, "_picard_group", counted)
        outcomes = solve_mfg_members(spec, [np.ones(33)] * 3, **self.SOLVER)
        assert calls == []
        next(outcomes)
        next(outcomes)
        assert calls == [2]
        next(outcomes)
        assert calls == [2, 1]


class TestManufacture:
    def test_residuals_small_on_coarse_grid(self, make_pair):
        pair = make_pair(33, 65)
        g = pair["grid"]
        triple, f = manufacture_triple(
            g, pair["spec"].kernel, pair["k1"], bump_form(PRISM, amplitude=0.3), steady_density(g)
        )
        spec = ProblemSpec(g, pair["spec"].kernel, f, triple.u, triple.m)
        res = residual(triple, spec)
        assert res["hjb"][0] < 5e-3 and res["fp"][0] < 1e-2

    def test_rejects_nonpositive_initial_density(self):
        g = make_grid(PRISM, 33, 65)
        with pytest.raises(ValueError, match="positive"):
            manufacture_triple(
                g, Kernel("separable"), np.ones(33), bump_form(PRISM, amplitude=0.3), np.zeros(33)
            )

    def test_density_stays_above_floor(self, make_pair):
        pair = make_pair(33, 65)
        assert pair["t1"].m.min() > M_FLOOR

    def test_quadratic_form_2d_is_reproduced_exactly(self):
        # a space-time quadratic lies in the kernel of the truncation error
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 9), 17)
        x1, x2 = g.space_meshgrid()
        kern = Kernel("separable", amplitude=0.2)
        triple, f = manufacture_triple(
            g, kern, np.ones((9, 9)), quadratic_form(),
            np.exp(1.0 - x1**2 - 0.5 * x2**2),
        )
        spec = ProblemSpec(g, kern, f, triple.u, triple.m)
        assert residual(triple, spec)["hjb"][0] < 1e-12

    @pytest.mark.usefixtures("damped")
    def test_2d_picard_smoke(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (9, 9), 17)
        x1, x2 = g.space_meshgrid()
        kern = Kernel("separable", amplitude=0.2)
        triple, f = manufacture_triple(
            g, kern, np.ones((9, 9)), quadratic_form(),
            np.exp(1.0 - x1**2 - 0.5 * x2**2),
        )
        spec = ProblemSpec(g, kern, f, triple.u, triple.m)
        got = solve_mfg_picard(spec, np.ones((9, 9)), damping=0.5, max_iter=40, tol=1e-8)
        assert got.report["history"][-1] < 1e-8
        assert np.max(np.abs(got.u - triple.u)) < 0.05


class TestSpecValidation:
    def test_shape_and_positivity_guards(self):
        g = make_grid(PRISM, 33, 65)
        good = dict(
            grid=g,
            kernel=Kernel("separable"),
            f=np.zeros(g.shape),
            u_data=np.zeros(g.shape),
            m_data=np.ones(g.shape),
        )
        spec = ProblemSpec(**good)
        # the data are marked read-only in place, not copied
        assert spec.f is good["f"] and not good["f"].flags.writeable
        other = make_grid(PRISM, 17, 65)
        with pytest.raises(ValueError, match=r"f has shape \(17, 65\), not \(33, 65\)"):
            ProblemSpec(**{**good, "f": np.zeros(other.shape)})
        u_values = np.zeros(g.shape)
        u_values[5, 7] = np.nan
        with pytest.raises(ValueError, match="u_data must be finite"):
            ProblemSpec(**{**good, "u_data": u_values})
        m_values = np.ones(g.shape)
        m_values[4, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            ProblemSpec(**{**good, "m_data": m_values})
        # manufacture_triple leaves the rule to the ProblemSpec it builds
        m0 = steady_density(g)
        m0[3] = 0.0
        with pytest.raises(ValueError, match="initial density must be positive, min = "):
            manufacture_triple(
                g, Kernel("separable"), np.ones(33), bump_form(PRISM, amplitude=0.3), m0
            )

    def test_triple_guards(self, make_pair):
        pair = make_pair(33, 65)
        with pytest.raises(ValueError, match=r"k has shape \(7,\), not \(33,\)"):
            MFGTriple(pair["grid"], pair["t1"].u, pair["t1"].m, np.ones(7), report={})
        other = make_grid(PRISM, 17, 65)
        with pytest.raises(ValueError, match=r"u has shape \(33, 65\), not \(17, 65\)"):
            MFGTriple(other, pair["t1"].u, pair["t1"].m, np.ones(17), report={})
        # k is marked read-only like u and m, and not copied
        k = np.ones(33)
        tr = MFGTriple(pair["grid"], pair["t1"].u, pair["t1"].m, k, report={})
        with pytest.raises(ValueError, match="read-only"):
            tr.k[3] = 5.0
        assert np.shares_memory(tr.k, k)

    @pytest.mark.parametrize("name", ["u", "m"])
    def test_triple_fields_must_be_finite(self, name):
        _, triple, _, _ = build_problem(17, 33)
        fields = {"u": triple.u.copy(), "m": triple.m.copy()}
        fields[name][4, 7] = np.nan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MFGTriple(triple.grid, fields["u"], fields["m"], triple.k, report={})

    @pytest.mark.parametrize(
        "solve, name",
        [("fokker-planck", "k"), ("picard", "coefficient 0"), ("members", "coefficient 1")],
        ids=["fokker-planck", "picard", "members"],
    )
    def test_non_finite_coefficient_rejected(self, solve, name):
        # rejected before any march, where NaN would end in a blow-up or a
        # singular matrix
        g, triple, _, spec = build_problem(17, 33)
        k = np.ones(g.shape_space)
        k[5] = np.nan
        solver = dict(damping=1.0, max_iter=5, tol=1e-8)
        calls = {
            "fokker-planck": lambda: solve_fokker_planck(spec, k, triple.u),
            "picard": lambda: solve_mfg_picard(spec, k, **solver),
            "members": lambda: next(solve_mfg_members(spec, [np.ones(17), k], **solver)),
        }
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            calls[solve]()

    @pytest.mark.parametrize(
        "solve, name", [(solve_fokker_planck, "u")], ids=["fokker-planck"]
    )
    def test_field_one_level_short_rejected(self, solve, name):
        # the short field's last level would be left unmarched or read past
        _, triple, _, spec = build_problem(17, 33)
        field = getattr(triple, name)[..., :-1]
        with pytest.raises(ValueError, match=rf"{name} has shape \(17, 32\), not \(17, 33\)"):
            solve(spec, np.ones(17), field)

    def test_solved_fields_are_read_only(self, make_pair):
        triple = make_pair(33, 65)["t1"]
        for values in (triple.u, triple.m):
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0] = 99.0
