"""Difference packs, coefficient reconstruction, derived residuals, the
parameter calculus, and the data-to-solution exponent sweep."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mfglab.grid import Prism
from mfglab.mfg import BlowupError, PicardNonConvergence, solve_mfg_picard
from mfglab.norms import norm
from mfglab.stability import (
    NondegeneracyError,
    assemble_final_estimate,
    compute_F,
    derived_residuals,
    epsilon_window,
    form_difference,
    holder_sweep,
    reconstruct_k_tilde,
    reconstruction_spread,
    select_parameters,
)

from conftest import KERNEL, PRISM, build_problem, perturbation


@pytest.fixture(scope="module")
def pair(make_pair):
    return make_pair(33, 65)


@pytest.fixture(scope="module")
def pack(make_pack):
    return make_pack(33, 65)


@pytest.fixture(scope="module")
def recon(pair, pack):
    g = pair["grid"]
    u01 = pair["t1"].u[..., g.index_t0]
    u02 = pair["t2"].u[..., g.index_t0]
    return compute_F(pack, u01, u02, pair["k2"], KERNEL, pair["f"])


class TestDifferencePack:
    def test_fields_are_differences(self, pair, pack):
        np.testing.assert_array_equal(
            pack.u_tilde, pair["t1"].u - pair["t2"].u
        )
        np.testing.assert_array_equal(pack.k_tilde, pair["k1"] - pair["k2"])
        assert pack.grid == pair["grid"]

    def test_snapshots_taken_at_central_time(self, pair, pack):
        g = pair["grid"]
        np.testing.assert_array_equal(
            pack.u0_tilde, pack.u_tilde[..., g.index_t0]
        )
        np.testing.assert_array_equal(
            pack.m0_tilde, pack.m_tilde[..., g.index_t0]
        )

    def test_recorded_norms(self, pack):
        assert pack.v_norm_sq("H2") == pytest.approx(331429.5642542975, rel=1e-8)
        assert pack.v_norm_sq("H21", eps=0.2) == pytest.approx(
            4.780119405920742, rel=1e-8
        )

    def test_v_norm_sq_stacks_components(self, pack):
        want = sum(
            norm(pack.grid, comp, "H21", eps=0.2) ** 2
            for comp in (pack.v, pack.q, pack.w, pack.r)
        )
        assert pack.v_norm_sq("H21", eps=0.2) == pytest.approx(want, rel=1e-13)

    def test_grid_mismatch_rejected(self, pair):
        g, triple, f, spec = build_problem(33, 33)
        other = solve_mfg_picard(spec, np.ones(g.shape_space), damping=0.5, max_iter=50, tol=1e-8)
        with pytest.raises(ValueError, match="different grids"):
            form_difference(pair["t1"], other)


class TestReconstruction:
    def test_snapshot_reconstruction_error(self, pair, pack, recon):
        p, F = recon
        krec = reconstruct_k_tilde(pack, p, F)
        err = norm(pair["grid"], krec - pack.k_tilde, "L2")
        assert err == pytest.approx(3.8789098360899677e-4, rel=1e-6)

    def test_shifted_reconstructions_are_time_independent(self, pack, recon):
        p, F = recon
        spread = reconstruction_spread(pack, p, F, times=(0.25, 0.5, 0.75))
        assert spread == 0.0

    def test_flat_reference_gradient_rejected(self, pair, pack):
        g = pair["grid"]
        flat = np.ones(g.shape_space)
        with pytest.raises(NondegeneracyError, match="dips to"):
            compute_F(pack, flat, flat, pair["k2"], KERNEL, pair["f"])


class TestDerivedResiduals:
    # trimmed (eps = 0.2) L2 residuals of the six derived equations on the
    # benchmark pair at (33, 65)
    FROZEN = {
        "value-diff": 0.0022548163245165787,
        "density-diff": 0.0009152487245462549,
        "value-dt": 0.02294937339878916,
        "density-dt": 0.005140920085381495,
        "value-dtt": 0.31607429551039157,
        "density-dtt": 0.0317699842059286,
    }

    @pytest.fixture(scope="class")
    def residuals(self, pair, pack):
        return derived_residuals(pack, pair["t1"], pair["t2"], KERNEL, pair["f"], eps=0.2)

    def test_every_equation_in_one_call(self, residuals):
        assert list(residuals) == list(self.FROZEN)

    @pytest.mark.parametrize("which", list(FROZEN))
    def test_trimmed_residuals(self, residuals, which):
        l2, worst = residuals[which]
        assert l2 == pytest.approx(self.FROZEN[which], rel=1e-6)
        assert worst > l2


class TestParameterCalculus:
    def test_reference_point_is_exact(self):
        p = select_parameters(Fraction(1, 2), Fraction(1, 5), PRISM, lam1=1.0)
        assert p.s == Fraction(9, 16)
        assert p.beta == Fraction(33, 7)
        assert p.alpha == Fraction(1000, 7)
        assert p.d == Fraction(132, 7)
        assert p.delta0 == math.exp(-264 / 7)

    def test_exponent_identity_holds_exactly(self):
        # alpha eps (T - eps) - b^2 = beta b^2 with no rounding
        p = select_parameters(Fraction(1, 2), Fraction(1, 5), PRISM, lam1=1.0)
        lhs = p.alpha * p.epsilon * (p.T - p.epsilon) - p.b * p.b
        assert lhs == p.beta * p.b * p.b

    def test_noise_matched_steepness(self):
        p = select_parameters(Fraction(1, 2), Fraction(1, 5), PRISM, lam1=1.0)
        assert p.lam(p.delta0) == pytest.approx(1.0, rel=1e-14)
        assert p.lam(1e-6) > p.lam(1e-3) > p.lam(1e-1) > 0.0
        for bad in (0.0, 1.0, 2.0, -0.5):
            with pytest.raises(ValueError, match="delta must lie in"):
                p.lam(bad)

    def test_epsilon_window(self):
        lo, hi = epsilon_window(0.5, 1.0)
        assert lo == pytest.approx(0.1464466094067262, abs=0.0)
        assert hi == 0.5

    def test_epsilon_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside the admissible window"):
            select_parameters(Fraction(1, 2), Fraction(1, 10), PRISM, lam1=1.0)
        with pytest.raises(ValueError, match="outside the admissible window"):
            select_parameters(Fraction(1, 2), Fraction(1, 2), PRISM, lam1=1.0)

    def test_window_boundary_is_strict(self):
        # rho = (1 - 2 eps / T)^2 exactly: the rational comparison has no
        # rounding slack, so the boundary point itself is infeasible
        with pytest.raises(ValueError, match="outside the admissible window"):
            select_parameters(Fraction(9, 25), Fraction(1, 5), PRISM, lam1=1.0)
        select_parameters(Fraction(9, 25) + Fraction(1, 10**9), Fraction(1, 5), PRISM, lam1=1.0)

    @pytest.mark.parametrize("epsilon, prism, name", [
        # b^2 = 1e308 is a double, alpha = (1000/7) b^2 is not
        (Fraction(1, 5), Prism(1.0, 1e154, (), 1.0), "alpha"),
        # alpha = (1000/7) b^2 underflows to 0
        (Fraction(1, 5), Prism(1e-171, 1e-170, (), 1.0), "alpha"),
        # with eps (T - eps) = 2400, d = 1.6 b^2 leaves the float range first
        (Fraction(40), Prism(1.0, 1.2e154, (), 100.0), "d"),
    ], ids=["huge-alpha", "vanishing-alpha", "huge-d"])
    def test_float_alpha_and_d_must_be_positive_doubles(self, epsilon, prism, name):
        with pytest.raises(ValueError, match=f"^{name} is out of floating-point range for b = "):
            select_parameters(Fraction(1, 2), epsilon, prism, lam1=1.0)

    def test_rho_range_checked(self):
        for rho in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ValueError, match="rho must lie in"):
                select_parameters(rho, Fraction(1, 5), PRISM, lam1=1.0)


@pytest.fixture(scope="module")
def sweep_setup():
    g, triple, f, spec = build_problem(33, 65)
    return g, spec, np.ones(g.shape_space), perturbation(g)


@pytest.fixture(scope="module")
def params():
    return select_parameters(Fraction(1, 2), Fraction(1, 5), PRISM, lam1=1.0)


@pytest.mark.usefixtures("damped")
class TestSweep:
    SCALES = (0.0, 0.02, 0.05, 0.1)
    # the solver settings the frozen slope was recorded with, on the damped
    # step
    SOLVER = {"damping": 0.5, "max_iter": 60, "tol": 1e-9}
    # the norm window and the data regime it was recorded on
    DATA = {"eps": 0.2, "completeness": "full"}

    def test_small_sweep_fit(self, sweep_setup):
        g, spec, k1, dk = sweep_setup
        rep = holder_sweep(spec, k1, dk, self.SCALES, **self.DATA, **self.SOLVER)
        assert rep.slope == pytest.approx(1.0137131966416255, rel=1e-9)
        assert rep.r_squared == pytest.approx(0.9999906332771438, rel=1e-9)
        assert rep.delta_decades() == pytest.approx(0.689242497379236, rel=1e-9)
        assert rep.excluded == ()
        assert rep.completeness == "full"

    def test_zero_scale_row_kept_but_not_fitted(self, sweep_setup):
        g, spec, k1, dk = sweep_setup
        rep = holder_sweep(spec, k1, dk, self.SCALES, **self.DATA, **self.SOLVER)
        zero = rep.rows[0]
        assert zero["scale"] == 0.0
        assert zero["delta"] == 0.0
        assert zero["err_k"] == 0.0
        assert math.isfinite(rep.slope)

    def test_sweep_is_deterministic(self, sweep_setup):
        g, spec, k1, dk = sweep_setup
        a = holder_sweep(spec, k1, dk, self.SCALES, **self.DATA, **self.SOLVER)
        b = holder_sweep(spec, k1, dk, self.SCALES, **self.DATA, **self.SOLVER)
        assert a == b

    def test_nonconvergent_scale_is_excluded_with_reason(self, sweep_setup):
        # the base coefficient converges in 20 damped iterations, the large
        # scale needs 22, so a cap of 21 splits them
        g, spec, k1, dk = sweep_setup
        solver = {"damping": 0.5, "max_iter": 21, "tol": 1e-9}
        rep = holder_sweep(spec, k1, dk, (0.02, 4.0), **self.DATA, **solver)
        assert [row["scale"] for row in rep.rows] == [0.02]
        assert len(rep.excluded) == 1
        assert rep.excluded[0]["scale"] == 4.0
        assert "no convergence" in rep.excluded[0]["reason"]

    def test_failures_resolve_in_member_order(self, sweep_setup):
        # as if the members were solved one after another: the base's failure
        # first, then each scale in turn, a non-converging one excluded with
        # its solo message and a blow-up raised
        g, spec, k1, dk = sweep_setup
        solver = {"damping": 0.5, "max_iter": 21, "tol": 1e-9}

        def solo(k, **settings):
            try:
                return solve_mfg_picard(spec, k, **settings)
            except (PicardNonConvergence, BlowupError) as e:
                return e

        stalled, blowup = solo(k1 + 4.0 * dk, **solver), solo(k1 - 200.0 * dk, **solver)
        assert isinstance(stalled, PicardNonConvergence) and isinstance(blowup, BlowupError)
        rep = holder_sweep(spec, k1, dk, (4.0, 0.02), **self.DATA, **solver)
        assert rep.excluded == ({"scale": 4.0, "reason": str(stalled)},)
        with pytest.raises(BlowupError) as info:
            holder_sweep(spec, k1, dk, (4.0, -200.0, 0.02), **self.DATA, **solver)
        assert str(info.value) == str(blowup)
        base = solo(k1, damping=0.5, max_iter=5, tol=1e-9)
        with pytest.raises(PicardNonConvergence) as info:
            holder_sweep(spec, k1, dk, (-200.0,), **self.DATA, damping=0.5, max_iter=5, tol=1e-9)
        assert info.value.history == base.history

    def test_single_point_has_no_slope(self, sweep_setup):
        g, spec, k1, dk = sweep_setup
        rep = holder_sweep(spec, k1, dk, (0.02,), **self.DATA, **self.SOLVER)
        assert math.isnan(rep.slope)
        assert rep.delta_decades() == 0.0


class TestFinalEstimate:
    def test_two_sided_estimate_holds_on_benchmark(self, pack, params):
        est = assemble_final_estimate(pack, params, 1e-3)
        assert est["holds"] is True
        assert est["lambda"] == 1.0
        assert est["margin_log"] == pytest.approx(22.334309629811933, rel=1e-8)
        # at this noise level the delta term dominates the decay term
        assert est["log_rhs_sq"] == pytest.approx(est["log_term_noise"], rel=1e-12)
        assert est["log_term_decay"] < est["log_term_noise"]

    def test_lambda_floors_at_lam1(self, pack, params):
        # lam(delta) only exceeds lam1 = 1 below delta0 ~ 4.2e-17
        assert assemble_final_estimate(pack, params, 1e-2)["lambda"] == 1.0
        assert assemble_final_estimate(pack, params, 1.5)["lambda"] == 1.0
        assert assemble_final_estimate(pack, params, 1e-18)["lambda"] > 1.0

    def test_delta_must_be_positive(self, pack, params):
        with pytest.raises(ValueError, match="delta must be positive"):
            assemble_final_estimate(pack, params, 0.0)
