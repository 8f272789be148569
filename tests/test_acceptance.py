"""Top-level acceptance checks.

Each test prints one `criterion N: PASS/FAIL - detail` line on the real
terminal (bypassing capture) before asserting, so a red criterion still
reports its measured numbers.  Criterion 4 checks the causal kernel form
against the bound its lemma states: the weighted-energy ratio stays below a
lambda-independent constant, does not grow with lambda, and decays with a
log-log slope near -2.  Flatness in lambda is asserted only for the spatial
form: the Carleman weight concentrates in a layer of width ~1/lambda at
x1 = b, where the causal integral from x1 to b vanishes, so the causal
ratio falls like 1/lambda^2 and its max/min spread grows with the sweep.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mfglab.carleman import (
    CarlemanParams,
    estimate_c0,
    random_family,
    verify_lemma,
    weight_extrema,
)
from mfglab.cip import extract, measure_delta
from mfglab.grid import make_grid
from mfglab.kernels import fubini_swap_residual
from mfglab.mfg import residual
from mfglab.norms import norm
from mfglab.stability import (
    compute_F,
    epsilon_window,
    form_difference,
    holder_sweep,
    reconstruct_k_tilde,
    reconstruction_spread,
    select_parameters,
)

from conftest import KERNEL, PRISM, build_problem, perturbation

ALPHA = 1000.0 / 7.0
LEVELS = ((33, 65), (65, 257), (129, 1025))
LEMMA_LAMBDAS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def pairs(make_pair):
    return [make_pair(nx, nt) for nx, nt in LEVELS]


def _reconstruction_study(pairs):
    hs, errs, spreads = [], [], []
    for pair in pairs:
        g = pair["grid"]
        pack = form_difference(pair["t1"], pair["t2"])
        u01 = pair["t1"].u[..., g.index_t0]
        u02 = pair["t2"].u[..., g.index_t0]
        p, F = compute_F(pack, u01, u02, pair["k2"], KERNEL, pair["f"])
        krec = reconstruct_k_tilde(pack, p, F)
        hs.append(g.h[0])
        errs.append(norm(g, krec - pack.k_tilde, "L2"))
        spreads.append(
            reconstruction_spread(pack, p, F, times=(0.25, 0.5, 0.75))
        )
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return errs, spreads, slope


def test_criterion_1_weight_extrema(capsys):
    t0 = time.perf_counter()
    g = make_grid(PRISM, 65, 257)
    corner = (g.nx[0] - 1, g.index_t0)
    worst = 0.0
    for lam in (1.0, 2.0, 4.0, 8.0):
        ext = weight_extrema(CarlemanParams(lam, ALPHA), g, eps=0.2)
        rel_max = abs(ext["max"] - math.exp(2.0 * lam * 4.0)) / math.exp(
            2.0 * lam * 4.0
        )
        want_min = math.exp(2.0 * lam * (1.0 - ALPHA * (0.5 - ext["eps"]) ** 2))
        rel_min = abs(ext["min"] - want_min) / want_min
        worst = max(worst, rel_max, rel_min)
        assert ext["argmax_index"] == corner, lam
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(capsys, 1, ok, f"worst relative extremum error {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_weighted_coercivity(capsys):
    t0 = time.perf_counter()
    g = make_grid(PRISM, 129, 257)
    params = CarlemanParams(2.0, ALPHA)
    assert params.negligible_decays(PRISM)
    members = random_family(g, count=20, seed=24301)
    c0, lambda0, reports = estimate_c0(g, members, ALPHA, (2.0, 4.0, 8.0, 16.0), restricted=False)
    predicted = 2.0 * (4.0 - ALPHA / 4.0)
    max_dev = max(
        abs(
            float(np.polyfit(np.asarray(r.lambdas), np.asarray(r.negligible_log), 1)[0])
            / predicted
            - 1.0
        )
        for r in reports
    )
    elapsed = time.perf_counter() - t0
    ok = (
        c0 is not None
        and c0 > 0.0
        and all(all(r.passed) for r in reports)
        and max_dev <= 0.05
        and elapsed < 30.0
    )
    report(
        capsys, 2, ok,
        f"C0 = {c0:.6g} covers {len(reports)} sweeps, negligible-rate "
        f"deviation {max_dev:.1e}, {elapsed:.1f}s",
    )
    assert c0 is not None and c0 > 0.0
    assert c0 == pytest.approx(1.9126333143807361, rel=1e-12)
    assert all(all(r.passed) for r in reports)
    assert max_dev <= 0.05
    assert elapsed < 30.0


def test_criterion_3_time_integral_rate(capsys):
    t0 = time.perf_counter()
    g = make_grid(PRISM, 65, 257)
    members = random_family(g, count=10, seed=123)
    reports = verify_lemma(g, members, alpha=ALPHA, lambdas=LEMMA_LAMBDAS)
    slopes = [rep.slope for rep in reports if rep.which == "time-integral"]
    worst = max(abs(s + 1.0) for s in slopes)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.15 and elapsed < 10.0
    report(
        capsys, 3, ok,
        f"10 samples, slope within {worst:.3f} of -1, {elapsed:.2f}s",
    )
    assert worst <= 0.15
    assert elapsed < 10.0


def test_criterion_4_kernel_form_flatness(capsys):
    t0 = time.perf_counter()
    g = make_grid(PRISM, 65, 257)
    members = random_family(g, count=10, seed=123)
    reports = verify_lemma(g, members, alpha=ALPHA, lambdas=LEMMA_LAMBDAS)
    spatial = [rep.spread for rep in reports if rep.which == "spatial"]
    causal_reports = [rep for rep in reports if rep.which == "causal"]
    causal = [rep.spread for rep in causal_reports]
    bounds = [rep.c_bound for rep in causal_reports]
    # verify_lemma's causal verdict: c_bound <= 10 and non-increasing in lambda
    bounded = all(rep.passed for rep in causal_reports)
    slopes = [rep.slope for rep in causal_reports]
    slopes_ok = all(-2.25 <= s <= -1.75 for s in slopes)
    rng = np.random.default_rng(123)
    fubini = fubini_swap_residual(g, rng.standard_normal((g.nx[0], g.nx[0])))
    elapsed = time.perf_counter() - t0
    ok = (
        max(spatial) <= 10.0
        and bounded
        and slopes_ok
        and fubini <= 1e-10
        and elapsed < 10.0
    )
    report(
        capsys, 4, ok,
        f"spatial spread max {max(spatial):.2f}, causal bound max "
        f"{max(bounds):.3g} (bound 10), causal spread max {max(causal):.0f}, "
        f"causal slopes [{min(slopes):.2f}, {max(slopes):.2f}], "
        f"Fubini residual {fubini:.1e}, {elapsed:.2f}s",
    )
    assert max(spatial) <= 10.0
    assert fubini <= 1e-10
    assert elapsed < 10.0
    # the causal lemma states a lambda-independent bound, not flatness: the
    # ratio decays like 1/lambda^2, so its spread over the sweep is large
    assert bounded
    assert slopes_ok


def test_criterion_5_manufactured_residual_order(capsys):
    t0 = time.perf_counter()
    hs = []
    errs = {"hjb": [], "fp": []}
    for nx, nt in LEVELS:
        g, triple, f, spec = build_problem(nx, nt)
        hs.append(g.h[0])
        for which, (l2, _) in residual(triple, spec).items():
            errs[which].append(l2)
    slopes = {
        which: float(np.polyfit(np.log(hs), np.log(errs[which]), 1)[0])
        for which in errs
    }
    elapsed = time.perf_counter() - t0
    ok = min(slopes.values()) >= 1.8 and elapsed < 60.0
    report(
        capsys, 5, ok,
        f"value-equation slope {slopes['hjb']:.2f}, density-equation slope "
        f"{slopes['fp']:.2f}, {elapsed:.1f}s",
    )
    assert slopes["hjb"] >= 1.8
    assert slopes["fp"] >= 1.8
    assert elapsed < 60.0


def test_criterion_6_reconstruction_convergence(capsys, pairs):
    t0 = time.perf_counter()
    errs, spreads, slope = _reconstruction_study(pairs)
    spread_ok = all(s <= 10.0 * e for s, e in zip(spreads, errs))
    elapsed = time.perf_counter() - t0
    ok = slope >= 1.5 and spread_ok and elapsed < 60.0
    report(
        capsys, 6, ok,
        f"error slope {slope:.2f} over {len(errs)} levels "
        f"(finest {errs[-1]:.2e}), shifted-mode spread max "
        f"{max(spreads):.1e}, {elapsed:.1f}s",
    )
    assert slope >= 1.5
    assert spread_ok
    assert elapsed < 60.0


def test_criterion_7_parameter_calculus(capsys):
    t0 = time.perf_counter()
    params = select_parameters(Fraction(1, 2), Fraction(1, 5), PRISM, lam1=1.0)
    exact = (
        params.beta == Fraction(33, 7)
        and params.alpha == Fraction(1000, 7)
        and params.d == Fraction(132, 7)
        and -Fraction(1) * params.d / params.rho == Fraction(-264, 7)
        and params.delta0 == math.exp(-264.0 / 7.0)
    )

    rng = np.random.default_rng(20240801)
    mismatches = 0
    checked = 0
    for _ in range(200):
        rho = Fraction(int(rng.integers(1, 999)), 1000)
        eps = Fraction(int(rng.integers(1, 999)), 2000)
        try:
            select_parameters(rho, eps, PRISM, lam1=1.0)
            feasible = True
        except ValueError:
            feasible = False
        lo, hi = epsilon_window(rho, 1.0)
        ef = float(eps)
        if abs(ef - lo) <= 1e-12 or abs(ef - hi) <= 1e-12:
            continue
        checked += 1
        if feasible != (lo < ef < hi):
            mismatches += 1

    # an exactly-on-the-boundary rational point is infeasible (the window
    # is open), matching the float window up to the stated 1e-12
    boundary_feasible = True
    try:
        select_parameters(Fraction(9, 25), Fraction(1, 5), PRISM, lam1=1.0)
    except ValueError:
        boundary_feasible = False

    elapsed = time.perf_counter() - t0
    ok = exact and mismatches == 0 and not boundary_feasible and elapsed < 1.0
    report(
        capsys, 7, ok,
        f"rational identities exact, window equivalence {checked}/200 "
        f"checked with {mismatches} mismatches, {elapsed:.2f}s",
    )
    assert exact
    assert mismatches == 0
    assert checked >= 190
    assert not boundary_feasible
    assert elapsed < 1.0


def test_criterion_8_noise_to_error_exponent(capsys):
    t0 = time.perf_counter()
    g, triple, f, spec = build_problem(65, 257)
    rep = holder_sweep(
        spec,
        np.ones(g.shape_space),
        perturbation(g),
        np.geomspace(1e-4, 1e-1, 6),
        eps=0.2,
        completeness="full",
        damping=1.0,
        max_iter=80,
        tol=1e-9,
    )
    decades = rep.delta_decades()
    elapsed = time.perf_counter() - t0
    ok = decades >= 2.0 and rep.slope >= 0.35 and elapsed < 300.0
    report(
        capsys, 8, ok,
        f"slope {rep.slope:.4f} (floor 0.35) over {decades:.2f} decades "
        f"of delta, r^2 = {rep.r_squared:.5f}, {elapsed:.1f}s",
    )
    assert rep.excluded == ()
    assert decades >= 2.0
    assert rep.slope >= 1.0 - 0.5 - 0.15
    assert elapsed < 300.0


def test_criterion_9_incomplete_data_regime(capsys, pairs):
    t0 = time.perf_counter()
    # reconstruction thresholds repeat under the incomplete data reading;
    # the shared-Dirichlet hypothesis must hold for every level
    deltas = []
    for pair in pairs:
        d1 = extract(pair["t1"], "incomplete")
        d2 = extract(pair["t2"], "incomplete")
        deltas.append(measure_delta(d1, d2))
    errs, spreads, slope = _reconstruction_study(pairs)
    spread_ok = all(s <= 10.0 * e for s, e in zip(spreads, errs))

    g, triple, f, spec = build_problem(65, 257)
    rep = holder_sweep(
        spec,
        np.ones(g.shape_space),
        perturbation(g),
        np.geomspace(1e-4, 1e-1, 6),
        eps=0.2,
        completeness="incomplete",
        damping=1.0,
        max_iter=80,
        tol=1e-9,
    )
    decades = rep.delta_decades()
    elapsed = time.perf_counter() - t0
    ok = (
        slope >= 1.5
        and spread_ok
        and all(d > 0.0 for d in deltas)
        and decades >= 2.0
        and rep.slope >= 0.35
        and elapsed < 360.0
    )
    report(
        capsys, 9, ok,
        f"incomplete data compatible at {len(deltas)} levels, reconstruction "
        f"slope {slope:.2f}, sweep slope {rep.slope:.4f} over {decades:.2f} "
        f"decades, {elapsed:.1f}s",
    )
    assert all(d > 0.0 for d in deltas)
    assert slope >= 1.5
    assert spread_ok
    assert rep.excluded == ()
    assert decades >= 2.0
    assert rep.slope >= 0.35
    assert elapsed < 360.0
