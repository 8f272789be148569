"""Exponential weight, coercivity functional, and weighted integral bounds."""

import math

import numpy as np
import pytest

from mfglab.carleman import (
    FAMILY_SEED,
    LAMBDA_MAX,
    CarlemanParams,
    CarlemanReport,
    carleman_sweep,
    estimate_c0,
    random_family,
    scaled_weight_values,
    verify_lemma,
    weight_extrema,
    weight_phi,
)
from mfglab.grid import (
    Prism,
    dt,
    gradient,
    laplacian,
    make_grid,
    mixed_xixj,
    snapshot,
    trace,
)
from mfglab.kernels import HeavisideCausal, SeparableDelta
from mfglab.norms import norm_spatial, trace_norm, weighted_sum

ALPHA = 1000.0 / 7.0


@pytest.fixture
def grid():
    return make_grid(Prism(1.0, 2.0, (), 1.0), 33, 65)


class TestParams:
    def test_lambda_window(self):
        CarlemanParams(1.0, ALPHA)
        CarlemanParams(LAMBDA_MAX, ALPHA)
        with pytest.raises(ValueError, match=">= 1"):
            CarlemanParams(0.5, ALPHA)
        with pytest.raises(ValueError, match="LAMBDA_MAX"):
            CarlemanParams(100.0, ALPHA)

    def test_alpha_positive(self):
        with pytest.raises(ValueError, match="positive"):
            CarlemanParams(2.0, 0.0)

    def test_negligible_decay_flag(self):
        p = Prism(1.0, 2.0, (), 1.0)
        # alpha T^2/4 > b^2 <=> alpha > 16 here
        assert CarlemanParams(2.0, ALPHA).negligible_decays(p)
        assert not CarlemanParams(2.0, 15.9).negligible_decays(p)


class TestWeight:
    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0, 8.0])
    def test_extrema_match_closed_forms(self, grid, lam):
        ex = weight_extrema(CarlemanParams(lam, ALPHA), grid, eps=0.2)
        assert ex["max"] == pytest.approx(ex["max_exact"], rel=1e-12)
        assert ex["min"] == pytest.approx(ex["min_exact"], rel=1e-12)

    def test_peak_sits_at_outer_wall_central_time(self, grid):
        ex = weight_extrema(CarlemanParams(4.0, ALPHA), grid)
        assert ex["argmax_index"] == (32, 32)
        x = grid.axis_coords(0)
        assert x[32] == 2.0 and grid.times[32] == 0.5

    def test_scaled_values_normalized(self, grid):
        vals = scaled_weight_values(8.0, ALPHA, grid)
        assert vals.max() == pytest.approx(1.0, rel=1e-14)
        assert vals.min() > 0.0

    def test_rescue_scale_activates_past_overflow_guard(self):
        # 2 lam b^2 = 1152 > 700 forces the shared rescaling
        g = make_grid(Prism(1.0, 3.0, (), 1.0), 17, 17)
        _, log_scale = weight_phi(CarlemanParams(64.0, ALPHA), g)
        assert log_scale == pytest.approx(2.0 * 64.0 * 9.0)
        _, none_scale = weight_phi(CarlemanParams(2.0, ALPHA), g)
        assert none_scale == 0.0


class TestRandomFamily:
    def test_deterministic(self, grid):
        a = random_family(grid, count=4)
        b = random_family(grid, count=4)
        assert len(a) == 4
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_seed_changes_family(self, grid):
        a = random_family(grid, count=2, seed=FAMILY_SEED)
        b = random_family(grid, count=2, seed=FAMILY_SEED + 1)
        assert not np.array_equal(a[0].values, b[0].values)

    def test_flattened_members_vanish_on_lateral_faces(self, grid):
        for member in random_family(grid, count=2):
            assert abs(member.values[0]).max() < 1e-12
            assert abs(member.values[-1]).max() < 1e-12


class TestFunctional:
    def test_report_components_nonnegative(self, grid):
        u = random_family(grid, count=1)[0]
        rep = carleman_sweep(u, 1, ALPHA, (2.0,), 1.0)
        assert rep.lhs[0] >= 0.0 and rep.main[0] >= 0.0
        assert rep.boundary[0] >= 0.0 and rep.negligible[0] >= 0.0

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CarlemanReport(
                lambdas=(2.0,),
                lhs=(-1.0,),
                main=(1.0,),
                boundary=(0.0,),
                negligible=(0.0,),
                negligible_log=(0.0,),
                passed=(True,),
                sign=1,
                restricted=False,
            )

    def test_estimate_c0_regression(self):
        g = make_grid(Prism(1.0, 2.0, (), 1.0), 65, 257)
        fam = random_family(g, count=5)
        c0, lam0, reports = estimate_c0(fam, ALPHA, (2.0, 4.0, 8.0, 16.0))
        assert c0 == pytest.approx(2.2961516645944338, rel=1e-12)
        assert lam0 == 2.0
        assert len(reports) == 10  # 5 members x 2 operator signs
        assert all(all(r.passed) for r in reports)

    def test_c0_none_when_unconstrained(self, grid):
        # at this coarse resolution every bracket is nonpositive
        fam = random_family(grid, count=3)
        c0, _, _ = estimate_c0(fam, ALPHA, (2.0, 4.0))
        assert c0 is None

    def test_negligible_log_decay_rate(self, grid):
        # log negligible falls at exactly 2(b^2 - alpha T^2/4) per unit lambda
        u = random_family(grid, count=1)[0]
        rep = carleman_sweep(u, 1, ALPHA, (2.0, 4.0, 8.0, 16.0), 1.0)
        slope = np.polyfit(rep.lambdas, rep.negligible_log, 1)[0]
        assert slope == pytest.approx(2.0 * (4.0 - ALPHA / 4.0), rel=1e-12)

    def test_both_operator_signs_run(self, grid):
        u = random_family(grid, count=1)[0]
        fwd = carleman_sweep(u, 1, ALPHA, (2.0,), 1.0)
        bwd = carleman_sweep(u, -1, ALPHA, (2.0,), 1.0)
        assert fwd.sign == 1 and bwd.sign == -1
        assert fwd.lhs != bwd.lhs


def _reference_rows(u, sign, lambdas, alpha, restricted):
    """The functional as its docstring writes it, one lambda at a time, with
    the weight evaluated on the full space-time mesh."""
    g = u.grid
    prism = g.prism
    x1, *_, t = g.spacetime_meshgrid()
    faces = [f for f in g.faces() if f.axis == 0 and f.side == +1] if restricted else list(g.faces())
    rows = {k: [] for k in ("lhs", "main", "boundary", "negligible", "negligible_log")}
    for lam in lambdas:
        logw = 2.0 * lam * (x1**2 - alpha * (t - prism.T / 2.0) ** 2)
        phi_s = np.exp(logw - 2.0 * lam * prism.b**2)
        ut = dt(u).values
        op = ut + sign * laplacian(g, u.values)
        rows["lhs"].append(weighted_sum(g, op * op * phi_s))
        grad_sq = np.zeros(g.shape)
        for comp in gradient(g, u.values):
            grad_sq += comp * comp
        second_sq = np.zeros(g.shape)
        for i in range(g.dim):
            for j in range(g.dim):
                d = mixed_xixj(g, u.values, i, j)
                second_sq += d * d
        main = (1.0 / lam) * weighted_sum(g, (ut * ut + second_sq) * phi_s)
        main += weighted_sum(g, (lam * grad_sq + lam**3 * u.values * u.values) * phi_s)
        rows["main"].append(main)
        bnd = 0.0
        for f in faces:
            bnd += (
                trace_norm(g, f, trace(u, "neumann", f), "H10") ** 2
                + trace_norm(g, f, trace(u, "dirichlet", f), "H21") ** 2
            )
        rows["boundary"].append(bnd * math.exp(lam * prism.b**2))
        end = (
            norm_spatial(g, snapshot(u, 0.0), "H1") ** 2
            + norm_spatial(g, snapshot(u, prism.T), "H1") ** 2
        )
        gap = alpha * prism.T**2 / 4.0 - prism.b**2
        rows["negligible"].append(end * math.exp(-2.0 * lam * gap - 2.0 * lam * prism.b**2))
        rows["negligible_log"].append(math.log(end) - 2.0 * lam * gap)
    return {k: tuple(v) for k, v in rows.items()}


class TestReferenceRows:
    LAMBDAS = (2.0, 4.0, 8.0)

    @pytest.mark.parametrize(
        "prism, nx, nt",
        [(Prism(1.0, 2.0, (), 1.0), 33, 65), (Prism(1.0, 2.0, (0.5,), 1.0), 9, 17)],
        ids=["1d", "2d"],
    )
    @pytest.mark.parametrize("restricted", [False, True])
    def test_rows_equal_reference(self, prism, nx, nt, restricted):
        g = make_grid(prism, nx, nt)
        # flattened members satisfy the restricted precondition; unflattened
        # ones keep every boundary term alive
        u = random_family(g, count=1, flatten_space=restricted)[0]
        _, _, reports = estimate_c0([u], ALPHA, self.LAMBDAS, restricted=restricted)
        for sign, from_estimate in zip((1, -1), reports):
            ref = _reference_rows(u, sign, self.LAMBDAS, ALPHA, restricted)
            from_sweep = carleman_sweep(u, sign, ALPHA, self.LAMBDAS, 1.0, restricted=restricted)
            for rep in (from_sweep, from_estimate):
                assert rep.sign == sign and rep.lambdas == self.LAMBDAS
                for name, values in ref.items():
                    assert getattr(rep, name) == values, name


class TestRestricted:
    def test_flattened_family_is_admissible(self, grid):
        u = random_family(grid, count=1)[0]
        rep = carleman_sweep(u, 1, ALPHA, (2.0,), 1.0, restricted=True)
        assert rep.restricted

    def test_nonvanishing_member_rejected(self, grid):
        u = random_family(grid, count=1, flatten_space=False)[0]
        with pytest.raises(ValueError, match="off the outflow face"):
            carleman_sweep(u, 1, ALPHA, (2.0,), 1.0, restricted=True)

    def test_nonvanishing_member_rejected_by_estimate(self, grid):
        u = random_family(grid, 1, flatten_space=False)[0]
        with pytest.raises(ValueError, match="off the outflow face"):
            estimate_c0([u], ALPHA, (2.0,), restricted=True)


class TestIntegralBounds:
    @pytest.fixture
    def member(self, grid):
        return random_family(grid, count=1)[0]

    def test_spatial_ratio_is_exactly_one_on_slab(self, member):
        # no cross axes: the kernel is the identity, so the ratio is 1 at
        # every lambda and the bound holds with spread 1
        rep = verify_lemma("spatial", member, kernel=SeparableDelta(), alpha=ALPHA)
        assert rep.ratios == (1.0,) * 6
        assert rep.spread == 1.0
        assert rep.passed is True

    def test_causal_ratio_decays_instead_of_flattening(self, member):
        # the causal ratio keeps falling with lambda, so the flatness check
        # honestly fails; boundedness still holds
        rep = verify_lemma("causal", member, kernel=HeavisideCausal(), alpha=ALPHA)
        assert rep.spread > 10.0
        assert rep.passed is False
        assert rep.c_bound == max(rep.ratios)
        assert all(r > 0.0 for r in rep.ratios)

    def test_time_integral_ratio_decays_like_one_over_lambda(self, member):
        rep = verify_lemma("time-integral", member, alpha=ALPHA)
        assert rep.passed is True
        assert -1.15 <= rep.slope <= -0.85

    def test_zero_function_is_degenerate(self, grid):
        from mfglab.grid import Field

        zero = Field(grid, np.zeros(grid.shape))
        rep = verify_lemma("time-integral", zero, alpha=ALPHA)
        assert rep.degenerate and rep.passed is None

    def test_kernel_requirements(self, member):
        with pytest.raises(ValueError, match="needs a kernel"):
            verify_lemma("spatial", member, alpha=ALPHA)
        with pytest.raises(ValueError, match="stated for"):
            verify_lemma("spatial", member, kernel=HeavisideCausal(), alpha=ALPHA)
        with pytest.raises(ValueError, match="unknown bound"):
            verify_lemma("everything", member, kernel=SeparableDelta(), alpha=ALPHA)

    def test_lambda_grid_validated(self, member):
        with pytest.raises(ValueError, match="lambda grid"):
            verify_lemma("time-integral", member, alpha=ALPHA, lambdas=(0.5, 2.0))
