"""Exponential weight, coercivity functional, and weighted integral bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from mfglab import carleman
from mfglab import grid as grid_module
from mfglab.carleman import (
    LAMBDA_MAX,
    CarlemanParams,
    CarlemanReport,
    estimate_c0,
    random_family,
    scaled_weight_values,
    verify_lemma,
    weight_extrema,
)
from mfglab.grid import (
    Prism,
    RangeGuardError,
    dt,
    first_derivative,
    gradient,
    laplacian,
    make_grid,
    second_derivative,
    time_integral_from_t0,
    trace,
    trapezoid_sum,
)
from mfglab.kernels import Kernel, apply_kernel
from mfglab.norms import norm, trace_norm

ALPHA = 1000.0 / 7.0
# the seed of the default config's Carleman family and the default lemma
# lambda grid
FAMILY_SEED = 24301
LEMMA_LAMBDAS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@pytest.fixture
def grid():
    return make_grid(Prism(1.0, 2.0, (), 1.0), 33, 65)


def unflattened_family(grid, count, seed):
    """Members of ``random_family``'s form without its sin^2 factor on each
    spatial axis, from the same random stream: evaluated on the full
    space-time mesh, nonzero on the lateral faces, so that every boundary
    term of the functional stays alive."""
    rng = np.random.default_rng(seed)
    mesh = grid.spacetime_meshgrid()
    bounds = [grid.prism.axis_bounds(axis) for axis in range(grid.dim)]
    for _ in range(count):
        values = np.ones(grid.shape)
        for x, (lo, hi) in zip(mesh, bounds + [(0.0, grid.prism.T)]):
            s = (x - lo) / (hi - lo)
            c = rng.uniform(-1.0, 1.0, 4)
            values = values * (
                c[0] + c[1] * s + c[2] * np.sin(np.pi * s) + c[3] * np.cos(np.pi * s)
            )
        yield values


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

    def test_scaled_values_live_on_x1_and_time(self):
        g = make_grid(Prism(1.0, 2.0, (0.5, 0.5), 1.0), [9, 5, 5], 17)
        assert scaled_weight_values(2.0, ALPHA, g).shape == (9, 1, 1, 17)

    def test_extrema_overflow_past_double_range(self):
        # 2 lam b^2 = 702 with b = 3 is still representable, 720 is not
        g = make_grid(Prism(1.0, 3.0, (), 1.0), 17, 17)
        ex = weight_extrema(CarlemanParams(39.0, ALPHA), g)
        assert ex["max"] == pytest.approx(math.exp(702.0), rel=1e-12)
        with pytest.raises(OverflowError):
            weight_extrema(CarlemanParams(40.0, ALPHA), g)


class TestRandomFamily:
    def test_deterministic(self, grid):
        a = list(random_family(grid, count=4, seed=FAMILY_SEED))
        b = list(random_family(grid, count=4, seed=FAMILY_SEED))
        assert len(a) == 4
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_seed_changes_family(self, grid):
        a = next(random_family(grid, count=2, seed=FAMILY_SEED))
        b = next(random_family(grid, count=2, seed=FAMILY_SEED + 1))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "prism, nx, nt",
        [
            (Prism(1.0, 2.0, (), 1.0), 33, 65),
            (Prism(1.0, 2.0, (0.5,), 1.0), [17, 9], 33),
            (Prism(1.0, 2.0, (0.5, 0.7), 1.0), [9, 7, 5], 17),
        ],
        ids=["1d", "2d", "3d"],
    )
    # one value: the family is always flattened, and the case ids keep it
    @pytest.mark.parametrize("flatten_space", [True])
    def test_matches_full_mesh_formula(self, prism, nx, nt, flatten_space):
        # every factor evaluated on the full space-time mesh, multiplied in
        # axis order with time last, from the same random stream
        g = make_grid(prism, nx, nt)
        mesh = g.spacetime_meshgrid()
        rng = np.random.default_rng(FAMILY_SEED)
        for member in random_family(g, count=3, seed=FAMILY_SEED):
            values = np.ones(g.shape)
            for axis in range(g.dim):
                lo, hi = prism.axis_bounds(axis)
                s = (mesh[axis] - lo) / (hi - lo)
                c = rng.uniform(-1.0, 1.0, 4)
                factor = c[0] + c[1] * s + c[2] * np.sin(np.pi * s) + c[3] * np.cos(np.pi * s)
                factor = factor * np.sin(np.pi * s) ** 2
                values = values * factor
            s = mesh[-1] / prism.T
            c = rng.uniform(-1.0, 1.0, 4)
            values = values * (
                c[0] + c[1] * s + c[2] * np.sin(np.pi * s) + c[3] * np.cos(np.pi * s)
            )
            assert member.shape == g.shape
            assert np.array_equal(member, values)

    def test_flattened_members_vanish_on_lateral_faces(self, grid):
        for member in random_family(grid, count=2, seed=FAMILY_SEED):
            assert abs(member[0]).max() < 1e-12
            assert abs(member[-1]).max() < 1e-12


class TestFunctional:
    def test_report_components_nonnegative(self, grid):
        u = next(random_family(grid, count=1, seed=FAMILY_SEED))
        _, _, (rep, _) = estimate_c0(grid, [u], ALPHA, (2.0,), restricted=False)
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
        fam = random_family(g, count=5, seed=FAMILY_SEED)
        c0, lam0, reports = estimate_c0(g, fam, ALPHA, (2.0, 4.0, 8.0, 16.0), restricted=False)
        assert c0 == pytest.approx(2.2961516645944338, rel=1e-12)
        assert lam0 == 2.0
        assert len(reports) == 10  # 5 members x 2 operator signs
        assert all(all(r.passed) for r in reports)

    def test_c0_none_when_unconstrained(self, grid):
        # at this coarse resolution every bracket is nonpositive
        fam = random_family(grid, count=3, seed=FAMILY_SEED)
        c0, _, _ = estimate_c0(grid, fam, ALPHA, (2.0, 4.0), restricted=False)
        assert c0 is None

    def test_negligible_log_decay_rate(self, grid):
        # log negligible falls at exactly 2(b^2 - alpha T^2/4) per unit lambda
        u = next(random_family(grid, count=1, seed=FAMILY_SEED))
        _, _, (rep, _) = estimate_c0(grid, [u], ALPHA, (2.0, 4.0, 8.0, 16.0), restricted=False)
        slope = np.polyfit(rep.lambdas, rep.negligible_log, 1)[0]
        assert slope == pytest.approx(2.0 * (4.0 - ALPHA / 4.0), rel=1e-12)

    def test_both_operator_signs_run(self, grid):
        u = next(random_family(grid, count=1, seed=FAMILY_SEED))
        _, _, (fwd, bwd) = estimate_c0(grid, [u], ALPHA, (2.0,), restricted=False)
        assert fwd.sign == 1 and bwd.sign == -1
        assert fwd.lhs != bwd.lhs

    def test_nan_component_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CarlemanReport(
                lambdas=(2.0,),
                lhs=(math.nan,),
                main=(1.0,),
                boundary=(0.0,),
                negligible=(0.0,),
                negligible_log=(0.0,),
                passed=(True,),
                sign=1,
                restricted=False,
            )

    def test_non_finite_member_rejected(self):
        g = make_grid(Prism(1.0, 2.0, (), 1.0), 33, 65)
        fam = list(random_family(g, 3, FAMILY_SEED))
        fam[1][16, 32] = math.nan
        with pytest.raises(ValueError, match="member 1 must be finite"):
            estimate_c0(g, fam, ALPHA, (2.0, 4.0), restricted=False)

    def test_wrongly_shaped_member_rejected(self, grid):
        fam = list(random_family(grid, 2, FAMILY_SEED))
        fam[1] = fam[1][:, :-1]
        with pytest.raises(ValueError, match=r"member 1 has shape \(33, 64\)"):
            estimate_c0(grid, fam, ALPHA, (2.0, 4.0), restricted=False)

    def test_empty_lambda_grid_rejected(self, grid, monkeypatch):
        # rejected before any member is evaluated
        def evaluated(*args, **kwargs):
            raise AssertionError("a member was evaluated")

        monkeypatch.setattr(carleman, "_functional_rows", evaluated)
        family = random_family(grid, 2, FAMILY_SEED)
        with pytest.raises(ValueError, match="lambda grid must be a non-empty list"):
            estimate_c0(grid, family, ALPHA, [], restricted=False)
        with pytest.raises(RangeGuardError, match="LAMBDA_MAX"):
            estimate_c0(grid, family, ALPHA, [2.0, 100.0], restricted=False)

    def test_bool_lambda_rejected(self, grid):
        family = random_family(grid, 2, FAMILY_SEED)
        with pytest.raises(ValueError, match="lambda grid values must be numbers, got True"):
            estimate_c0(grid, family, ALPHA, [True, 2.0], restricted=False)

    def test_boundary_factor_overflow_rejected(self, monkeypatch):
        # lambda b^2 = 64 * 16 = 1024 > ln(largest double), caught before
        # any member is evaluated
        def evaluated(*args, **kwargs):
            raise AssertionError("a member was evaluated")

        monkeypatch.setattr(carleman, "_functional_rows", evaluated)
        g = make_grid(Prism(1.0, 4.0, (), 1.0), 9, 17)
        with pytest.raises(RangeGuardError, match=r"exp\(lambda b\^2\) = exp\(1024\)"):
            estimate_c0(g, random_family(g, 2, FAMILY_SEED), ALPHA, [2.0, 64.0], restricted=False)


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    def test_random_family_yields_lazily(self, grid):
        family = random_family(grid, count=3, seed=FAMILY_SEED)
        assert iter(family) is family  # an iterator, not a list

    def test_memory_does_not_grow_with_count(self):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), [33, 33], 33)
        member_bytes = next(random_family(g, count=1, seed=FAMILY_SEED)).nbytes

        def peak(count):
            return _traced_peak(
                lambda: estimate_c0(
                    g, random_family(g, count, FAMILY_SEED), ALPHA, (2.0, 4.0), restricted=False
                )
            )

        small = peak(2)
        assert peak(8) - small < member_bytes

    def test_bad_member_named_as_it_arrives(self, grid):
        good = list(random_family(grid, count=2, seed=FAMILY_SEED))

        def members():
            yield from good
            bad = good[0].copy()
            bad[16, 32] = math.nan
            yield bad
            raise AssertionError("drawn past the bad member")

        with pytest.raises(ValueError, match="member 2 must be finite"):
            estimate_c0(grid, members(), ALPHA, (2.0, 4.0), restricted=False)
        with pytest.raises(ValueError, match="sample 2 must be finite"):
            verify_lemma(grid, members(), alpha=ALPHA, lambdas=(2.0, 4.0))

    def test_weight_built_once_per_lambda(self, grid, monkeypatch):
        built = []
        real = carleman.scaled_weight_values

        def counted(lam, alpha, g):
            built.append(lam)
            return real(lam, alpha, g)

        monkeypatch.setattr(carleman, "scaled_weight_values", counted)
        family = random_family(grid, count=3, seed=FAMILY_SEED)
        estimate_c0(grid, family, ALPHA, (4.0, 2.0), restricted=False)
        assert built == [2.0, 4.0]


class TestComputedOnce:
    """Each derivative of a block and each lambda's weight of a lemma sample
    is computed once."""

    @pytest.mark.parametrize(
        "prism, nx, nt",
        [
            (Prism(1.0, 2.0, (), 1.0), 33, 17),
            (Prism(1.0, 2.0, (0.5,), 1.0), [10, 5], 17),
            (Prism(1.0, 2.0, (0.5, 0.5), 1.0), [9, 5, 5], 9),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_block_takes_each_derivative_once(self, monkeypatch, prism, nx, nt):
        g = make_grid(prism, nx, nt)
        u = next(unflattened_family(g, 1, FAMILY_SEED))
        # blocks of the minimum 3 rows, and no per-member norm in the count
        monkeypatch.setattr(carleman, "_FUNCTIONAL_BLOCK_NODES", 1)
        monkeypatch.setattr(carleman, "_boundary_norms_sq", lambda *args: 1.0)
        monkeypatch.setattr(carleman, "_end_norms_sq", lambda *args: 1.0)
        calls = {}
        for name in ("first_derivative", "second_derivative"):
            real = getattr(grid_module, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)

            for module in (grid_module, carleman):
                monkeypatch.setattr(module, name, counted)
        weights = [scaled_weight_values(2.0, ALPHA, g)]
        carleman._functional_rows(g, u, (2.0,), weights, ALPHA, restricted=False)
        blocks = len(carleman._row_blocks(g))
        assert blocks >= 3
        # u_t, the n first derivatives and the n(n-1) outer ones of the mixed
        # derivatives; the n pure second derivatives
        assert calls == {
            "first_derivative": blocks * (1 + g.dim**2),
            "second_derivative": blocks * g.dim,
        }

    def test_lemma_weight_built_once_per_lambda(self, grid, monkeypatch):
        built = []
        real = carleman.scaled_weight_values

        def counted(lam, alpha, g):
            built.append(lam)
            return real(lam, alpha, g)

        monkeypatch.setattr(carleman, "scaled_weight_values", counted)
        family = random_family(grid, count=2, seed=FAMILY_SEED)
        reports = verify_lemma(grid, family, alpha=ALPHA, lambdas=(4.0, 1.0, 2.0))
        assert len(reports) == 6
        assert built == [1.0, 2.0, 4.0]


class TestRowBlocks:
    """The functional's reduced arrays are filled one block of x1 rows at a
    time; the block size must not change a bit."""

    @pytest.mark.parametrize(
        "prism, nx, nt",
        [
            (Prism(1.0, 2.0, (), 1.0), 65, 129),
            # 10 rows: blocks of 3, 3 and 4, the one-row tail merged
            (Prism(1.0, 2.0, (0.5,), 1.0), [10, 5], 17),
            (Prism(1.0, 2.0, (0.5,), 1.0), [65, 65], 33),
            (Prism(1.0, 2.0, (0.5, 0.5), 1.0), [9, 9, 9], 17),
        ],
        ids=["1d", "2d-tail", "2d", "3d"],
    )
    @pytest.mark.parametrize("restricted", [False, True])
    def test_minimum_blocks_equal_one_block(self, monkeypatch, prism, nx, nt, restricted):
        g = make_grid(prism, nx, nt)
        # flattened members satisfy the restricted precondition
        family = random_family if restricted else unflattened_family
        members = list(family(g, 2, FAMILY_SEED))

        def run(nodes):
            monkeypatch.setattr(carleman, "_FUNCTIONAL_BLOCK_NODES", nodes)
            blocks = carleman._row_blocks(g)
            return blocks, estimate_c0(g, members, ALPHA, (2.0, 4.0, 8.0), restricted=restricted)

        whole, one = run(math.prod(g.shape))
        assert whole == [(0, g.nx[0])]
        blocks, minimum = run(1)
        assert [stop - start for start, stop in blocks][:-1] == [3] * (len(blocks) - 1)
        assert 3 <= blocks[-1][1] - blocks[-1][0] <= 5
        assert repr(minimum) == repr(one)

    @pytest.mark.parametrize(
        "nodes, nx, nt, blocks",
        [
            (1, [10, 5], 17, [(0, 3), (3, 6), (6, 10)]),
            # the default budget: 7 rows of 65 x 129 nodes, the 2-row tail merged
            (None, [65, 65], 129, [(i, i + 7) for i in range(0, 56, 7)] + [(56, 65)]),
            (None, [65], 257, [(0, 65)]),
        ],
    )
    def test_block_layout(self, monkeypatch, nodes, nx, nt, blocks):
        half_widths = (0.5,) * (len(nx) - 1)
        g = make_grid(Prism(1.0, 2.0, half_widths, 1.0), nx, nt)
        if nodes is not None:
            monkeypatch.setattr(carleman, "_FUNCTIONAL_BLOCK_NODES", nodes)
        assert carleman._row_blocks(g) == blocks

    def test_one_member_holds_less_than_two_fields(self):
        # the whole-field functional held about five fields at once
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), [65, 65], 129)
        u = next(random_family(g, count=1, seed=FAMILY_SEED))
        field = u.nbytes
        lambdas = (2.0, 4.0, 8.0, 16.0)
        peak = _traced_peak(lambda: estimate_c0(g, [u], ALPHA, lambdas, restricted=False))
        assert peak < 2 * field


def _reference_rows(g, u, sign, lambdas, alpha, restricted):
    """The functional as its docstring writes it, one lambda at a time, with
    the weight evaluated on the full space-time mesh."""
    prism = g.prism
    x1, *_, t = g.spacetime_meshgrid()
    faces = [f for f in g.faces() if f.axis == 0 and f.side == +1] if restricted else list(g.faces())
    rows = {k: [] for k in ("lhs", "main", "boundary", "negligible", "negligible_log")}
    wt = g.time_weights()
    for lam in lambdas:
        logw = 2.0 * lam * (x1**2 - alpha * (t - prism.T / 2.0) ** 2)
        phi_s = np.exp(logw - 2.0 * lam * prism.b**2)
        ut = dt(g, u)
        op = ut + sign * laplacian(g, u)
        rows["lhs"].append(trapezoid_sum(g, op * op * phi_s, time_weights=wt))
        grad_sq = np.zeros(g.shape)
        for comp in gradient(g, u):
            grad_sq += comp * comp
        second_sq = np.zeros(g.shape)
        for i in range(g.dim):
            for j in range(g.dim):
                if i == j:
                    d = second_derivative(u, i, g.h[i])
                else:
                    d = first_derivative(first_derivative(u, i, g.h[i]), j, g.h[j])
                second_sq += d * d
        main = (1.0 / lam) * trapezoid_sum(g, (ut * ut + second_sq) * phi_s, time_weights=wt)
        main += trapezoid_sum(g, (lam * grad_sq + lam**3 * u * u) * phi_s, time_weights=wt)
        rows["main"].append(main)
        bnd = 0.0
        for f in faces:
            bnd += (
                trace_norm(g, f, trace(g, u, "neumann", f), "H10") ** 2
                + trace_norm(g, f, trace(g, u, "dirichlet", f), "H21") ** 2
            )
        rows["boundary"].append(bnd * math.exp(lam * prism.b**2))
        end = (
            norm(g, u[..., g.index_of_time(0.0)], "H1") ** 2
            + norm(g, u[..., g.index_of_time(prism.T)], "H1") ** 2
        )
        gap = alpha * prism.T**2 / 4.0 - prism.b**2
        rows["negligible"].append(end * math.exp(-2.0 * lam * gap - 2.0 * lam * prism.b**2))
        rows["negligible_log"].append(math.log(end) - 2.0 * lam * gap)
    return {k: tuple(v) for k, v in rows.items()}


class TestReferenceRows:
    LAMBDAS = (2.0, 4.0, 8.0)
    # the functional sums the cross-section axes before the (x1, t) axes, so
    # on an n-D grid the volume terms round differently from the reference's
    # full-mesh sums; on a 1-D grid they are the same operations
    VOLUME_RTOL = 1e-14

    @pytest.mark.parametrize(
        "prism, nx, nt",
        [
            (Prism(1.0, 2.0, (), 1.0), 33, 65),
            (Prism(1.0, 2.0, (0.5,), 1.0), 9, 17),
            (Prism(1.0, 2.0, (0.5, 0.5), 1.0), 9, 17),
        ],
        ids=["1d", "2d", "3d"],
    )
    @pytest.mark.parametrize("restricted", [False, True])
    def test_rows_equal_reference(self, prism, nx, nt, restricted):
        g = make_grid(prism, nx, nt)
        # flattened members satisfy the restricted precondition; unflattened
        # ones keep every boundary term alive
        u = next((random_family if restricted else unflattened_family)(g, 1, FAMILY_SEED))
        _, _, reports = estimate_c0(g, [u], ALPHA, self.LAMBDAS, restricted=restricted)
        for sign, rep in zip((1, -1), reports):
            ref = _reference_rows(g, u, sign, self.LAMBDAS, ALPHA, restricted)
            assert rep.sign == sign and rep.lambdas == self.LAMBDAS
            for name, values in ref.items():
                if g.dim > 1 and name in ("lhs", "main"):
                    assert getattr(rep, name) == pytest.approx(values, rel=self.VOLUME_RTOL), name
                else:
                    assert getattr(rep, name) == values, name


class TestRestricted:
    def test_flattened_family_is_admissible(self, grid):
        u = next(random_family(grid, count=1, seed=FAMILY_SEED))
        _, _, reports = estimate_c0(grid, [u], ALPHA, (2.0,), restricted=True)
        assert all(rep.restricted for rep in reports)

    def test_nonvanishing_member_rejected_by_estimate(self, grid):
        u = next(unflattened_family(grid, 1, FAMILY_SEED))
        with pytest.raises(ValueError, match="off the outflow face"):
            estimate_c0(grid, [u], ALPHA, (2.0,), restricted=True)


def _lemma(which, grid, h, alpha, lambdas):
    """The report of one lemma out of ``verify_lemma``'s three for the
    sample ``h``."""
    reports = verify_lemma(grid, [h], alpha=alpha, lambdas=lambdas)
    assert [rep.which for rep in reports] == ["spatial", "causal", "time-integral"]
    return reports[["spatial", "causal", "time-integral"].index(which)]


class TestIntegralBounds:
    @pytest.fixture
    def member(self, grid):
        return next(random_family(grid, count=1, seed=FAMILY_SEED))

    def test_spatial_ratio_is_exactly_one_on_slab(self, grid, member):
        # no cross axes: the kernel is the identity, so the ratio is 1 at
        # every lambda and the bound holds with spread 1
        rep = _lemma("spatial", grid, member, ALPHA, LEMMA_LAMBDAS)
        assert rep.ratios == (1.0,) * 6
        assert rep.spread == 1.0
        assert rep.slope is None
        assert rep.passed is True

    def test_causal_ratio_decays_instead_of_flattening(self, grid, member):
        # the causal ratio keeps falling with lambda, so it is not flat; the
        # verdict checks the stated bound: small and non-increasing
        rep = _lemma("causal", grid, member, ALPHA, LEMMA_LAMBDAS)
        assert rep.spread > 10.0
        assert rep.passed is True
        assert rep.c_bound == max(rep.ratios) == rep.ratios[0]
        assert all(b <= a for a, b in zip(rep.ratios, rep.ratios[1:]))
        assert all(r > 0.0 for r in rep.ratios)
        assert rep.slope == pytest.approx(
            np.polyfit(np.log(rep.lambdas), np.log(rep.ratios), 1)[0], rel=1e-12
        )
        assert rep.slope < -1.0

    def test_causal_verdict_rejects_a_growing_ratio(self, grid, member, monkeypatch):
        # reversing the sweep order of the weight makes the ratio grow with
        # lambda; the same numbers must then fail the monotonicity check
        rep = _lemma("causal", grid, member, ALPHA, LEMMA_LAMBDAS)
        lams = rep.lambdas
        real = carleman.scaled_weight_values
        flipped = dict(zip(lams, reversed(lams)))
        monkeypatch.setattr(
            carleman, "scaled_weight_values",
            lambda lam, alpha, grid: real(flipped[lam], alpha, grid),
        )
        grown = _lemma("causal", grid, member, ALPHA, LEMMA_LAMBDAS)
        assert grown.ratios == tuple(reversed(rep.ratios))
        assert grown.c_bound == rep.c_bound <= 10.0
        assert grown.passed is False

    def test_time_integral_ratio_decays_like_one_over_lambda(self, grid, member):
        rep = _lemma("time-integral", grid, member, ALPHA, LEMMA_LAMBDAS)
        assert rep.passed is True
        assert -1.15 <= rep.slope <= -0.85

    def test_zero_function_is_degenerate(self, grid):
        zero = np.zeros(grid.shape)
        rep = _lemma("time-integral", grid, zero, ALPHA, LEMMA_LAMBDAS)
        assert rep.degenerate and rep.passed is None

    @pytest.mark.parametrize("which", ["spatial", "causal", "time-integral"])
    def test_non_finite_or_misshapen_h_rejected(self, grid, member, which):
        # h is checked once, before any of its three reports is built
        bad = member.copy()
        bad[3, 5] = math.inf
        with pytest.raises(ValueError, match="sample 0 must be finite"):
            _lemma(which, grid, bad, ALPHA, LEMMA_LAMBDAS)
        with pytest.raises(ValueError, match=r"sample 0 has shape \(32, 65\), not \(33, 65\)"):
            _lemma(which, grid, member[:-1], ALPHA, LEMMA_LAMBDAS)

    @pytest.mark.parametrize("which", ["spatial", "causal", "time-integral"])
    def test_ratios_match_full_mesh_formula_2d(self, which):
        # the lemma sums the cross-section axis first; the full-mesh sums
        # against the weight on every node agree to round-off
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), [17, 9], 33)
        h = next(unflattened_family(g, 1, FAMILY_SEED))
        rep = _lemma(which, g, h, ALPHA, LEMMA_LAMBDAS)
        if which == "time-integral":
            target = time_integral_from_t0(g, h)
        else:
            kind = {"spatial": "separable", "causal": "causal"}[which]
            target = apply_kernel(Kernel(kind), g, h)
        x1, _, t = g.spacetime_meshgrid()
        wt = g.time_weights()
        for lam, ratio in zip(rep.lambdas, rep.ratios):
            logw = 2.0 * lam * (x1**2 - ALPHA * (t - 0.5) ** 2)
            phi_s = np.exp(logw - 2.0 * lam * 4.0)
            ref = trapezoid_sum(g, target * target * phi_s, time_weights=wt)
            ref /= trapezoid_sum(g, h * h * phi_s, time_weights=wt)
            if which == "time-integral":
                ref *= lam
            assert ratio == pytest.approx(ref, rel=1e-14)

    def test_lambda_grid_validated(self, grid):
        def samples():  # checked before any sample is drawn
            raise AssertionError("a sample was drawn")
            yield

        with pytest.raises(ValueError, match="lambda grid"):
            verify_lemma(grid, samples(), alpha=ALPHA, lambdas=(0.5, 2.0))

    def test_bool_lambda_rejected(self, grid, member):
        with pytest.raises(ValueError, match="lambda grid values must be numbers, got True"):
            verify_lemma(grid, [member], alpha=ALPHA, lambdas=(True, 2.0))

    @pytest.mark.parametrize("lambdas", [(2.0,), (2.0, 2.0)])
    def test_lambda_grid_needs_two_distinct_values(self, grid, member, lambdas):
        with pytest.raises(ValueError, match="at least 2 distinct values"):
            verify_lemma(grid, [member], alpha=ALPHA, lambdas=lambdas)
